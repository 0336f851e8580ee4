package rel

// This file implements the columnar batch layer of the library: the
// unit of vectorized execution. A Batch is a struct-of-arrays slice of
// a relation — one flat []uint32 column of interned value IDs per
// attribute, each column paired with the dictionary its IDs are drawn
// from — holding up to BatchCap rows. Moving batches instead of tuples
// removes the two constant factors that dominate tuple-at-a-time
// execution: one interface call per row per operator, and one
// allocation per row at every tuple-producing operator. A batch
// amortizes both over ~1024 rows, and the hot inner loops (selection,
// projection, dedup probes, join probes) become flat array walks over
// uint32 IDs.
//
// Ownership contract: a batch yielded by a BatchCursor belongs to the
// consumer, which must call Release when done with it (passing it
// downstream transfers ownership). A batch stays valid until the
// consumer calls Release or pulls the next batch from the same cursor,
// whichever comes first. Released non-view batches return to a
// sync.Pool; view batches — whose columns alias relation or operator
// storage, such as the ones Relation.BatchScan yields — are read-only
// and their Release is a no-op, so aliased storage can never be
// recycled into a writable batch.

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// BatchCap is the default number of rows per batch: large enough to
// amortize per-batch overhead (channel sends, virtual calls, pool
// round-trips), small enough that a batch of a few columns stays
// within L1/L2 cache.
const BatchCap = 1024

// Batch is a fixed-capacity columnar block of rows: per attribute one
// flat column of interned value IDs plus the dictionary that decodes
// them. Columns may reference different dictionaries (a join output
// carries each side's dictionary through), which is what lets scans
// emit stored ID columns without re-interning.
type Batch struct {
	capacity int // logical row capacity (the Full bound)
	physical int // allocated column length, >= capacity for pooled batches
	n        int
	store    [][]uint32 // backing columns, each len == physical (nil for views)
	cols     [][]uint32 // active columns; for views these alias foreign storage
	dicts    []*Interner
	view     bool
}

// Arity returns the number of columns.
func (b *Batch) Arity() int { return len(b.cols) }

// Len returns the number of rows currently in the batch.
func (b *Batch) Len() int { return b.n }

// Cap returns the row capacity.
func (b *Batch) Cap() int { return b.capacity }

// Full reports whether the batch has no room for another row.
func (b *Batch) Full() bool { return b.n >= b.capacity }

// Col returns column i as a slice of the rows currently held. The
// slice aliases batch (or, for views, relation) storage: read-only for
// anyone but the batch's owner.
func (b *Batch) Col(i int) []uint32 { return b.cols[i][:b.n] }

// WritableCol returns column i at full capacity for bulk writes;
// pair it with SetLen once every column holds the same row count. It
// panics on view batches, whose columns alias foreign storage.
func (b *Batch) WritableCol(i int) []uint32 {
	if b.view {
		panic("rel: WritableCol on a view batch")
	}
	return b.cols[i]
}

// SetLen declares the batch to hold n rows, after bulk column writes.
func (b *Batch) SetLen(n int) {
	if n < 0 || n > b.capacity {
		panic(fmt.Sprintf("rel: batch SetLen %d outside 0..%d", n, b.capacity))
	}
	b.n = n
}

// Dict returns the dictionary of column i.
func (b *Batch) Dict(i int) *Interner { return b.dicts[i] }

// SetDict assigns the dictionary of column i.
func (b *Batch) SetDict(i int, d *Interner) { b.dicts[i] = d }

// Value decodes the value at (column, row).
func (b *Batch) Value(col, row int) Value { return b.dicts[col].Value(b.cols[col][row]) }

// Row decodes one row into buf (grown as needed) and returns it. The
// returned tuple is freshly decoded and owned by the caller only until
// the next Row call with the same buf.
func (b *Batch) Row(buf Tuple, row int) Tuple {
	if cap(buf) < len(b.cols) {
		buf = make(Tuple, len(b.cols))
	}
	buf = buf[:len(b.cols)]
	for k := range b.cols {
		buf[k] = b.dicts[k].Value(b.cols[k][row])
	}
	return buf
}

// AppendRowFrom copies row `row` of src onto the end of b. The batch
// must not be full, and b's dictionaries must match src's (see
// DictsMatch); the IDs are copied verbatim.
func (b *Batch) AppendRowFrom(src *Batch, row int) {
	for k := range b.cols {
		b.cols[k][b.n] = src.cols[k][row]
	}
	b.n++
}

// DictsMatch reports whether src's per-column dictionaries are exactly
// b's, which is the precondition for copying raw IDs between them.
func (b *Batch) DictsMatch(src *Batch) bool {
	if len(b.dicts) != len(src.dicts) {
		return false
	}
	for k := range b.dicts {
		if b.dicts[k] != src.dicts[k] {
			return false
		}
	}
	return true
}

// AdoptDicts copies src's per-column dictionaries onto b.
func (b *Batch) AdoptDicts(src *Batch) { copy(b.dicts, src.dicts) }

// Reset empties the batch, keeping columns and dictionaries.
func (b *Batch) Reset() { b.n = 0 }

// Release returns the batch to the pool. Views (whose columns alias
// relation or operator storage) are not pooled: their Release is a
// no-op. Release must be called at most once per batch obtained.
func (b *Batch) Release() {
	if b == nil || b.view {
		return
	}
	for k := range b.dicts {
		b.dicts[k] = nil // don't pin dictionaries from the pool
	}
	batchLive.Add(-1)
	batchPool.Put(b)
}

// The pool recycles non-view batches. Stats are tracked so pooled
// batch capacity can be reported separately from operator state: a
// resident meter counts tuples an operator must hold, while pool
// occupancy is a bounded, recycled transport buffer.
var (
	batchPool   sync.Pool
	batchLive   atomic.Int64 // batches currently checked out
	batchPeak   atomic.Int64 // high-water mark of batchLive
	batchAllocs atomic.Int64 // batches actually allocated (pool misses)
)

// BatchPoolStats reports the pool's live batch count (checked out, not
// yet released), the high-water mark since ResetBatchPoolPeak, and the
// number of batches ever allocated. live×BatchCap bounds the rows the
// in-flight batches of every running plan can hold.
func BatchPoolStats() (live, peak, allocs int64) {
	return batchLive.Load(), batchPeak.Load(), batchAllocs.Load()
}

// ResetBatchPoolPeak restarts the high-water mark from the current
// live count, for per-experiment reporting.
func ResetBatchPoolPeak() { batchPeak.Store(batchLive.Load()) }

// NewBatch returns an empty writable batch of the given arity and
// BatchCap row capacity, recycled from the pool when possible.
func NewBatch(arity int) *Batch { return NewBatchSized(arity, BatchCap) }

// NewBatchSized is NewBatch with an explicit row capacity (the ST4
// batch-size sweep uses 1 and 64 next to the default 1024). Pooled
// batches keep their largest capacity, so mixed sizes still recycle.
func NewBatchSized(arity, capacity int) *Batch {
	if arity < 0 || capacity < 1 {
		panic(fmt.Sprintf("rel: batch arity %d capacity %d", arity, capacity))
	}
	if live := batchLive.Add(1); live > batchPeak.Load() {
		// Benign race: a concurrent higher peak may win; the mark is a
		// monotone high-water estimate, not an exact ledger.
		batchPeak.Store(live)
	}
	if v := batchPool.Get(); v != nil {
		b := v.(*Batch)
		if b.physical >= capacity {
			b.reshape(arity, capacity)
			return b
		}
		// Too small for this request (only possible when capacity >
		// BatchCap): drop it and allocate fresh below.
	}
	batchAllocs.Add(1)
	physical := capacity
	if physical < BatchCap {
		physical = BatchCap // never pool undersized column arrays
	}
	b := &Batch{physical: physical}
	b.reshape(arity, capacity)
	return b
}

// reshape prepares a pooled batch for reuse at the given arity and
// logical capacity, recycling its column arrays.
func (b *Batch) reshape(arity, capacity int) {
	b.n = 0
	b.view = false
	b.capacity = capacity
	for len(b.store) < arity {
		b.store = append(b.store, make([]uint32, b.physical))
	}
	b.cols = b.store[:arity]
	if cap(b.dicts) < arity {
		b.dicts = make([]*Interner, arity)
	}
	b.dicts = b.dicts[:arity]
	for k := range b.dicts {
		b.dicts[k] = nil
	}
}

// MakeView initializes b as a view batch of len(cols) columns, all
// decoded by dict. Pair with SliceView; the view's Release is a no-op,
// so aliased storage can never reach the pool.
func (b *Batch) MakeView(cols [][]uint32, dict *Interner) {
	b.view = true
	b.store = nil
	b.cols = make([][]uint32, len(cols))
	b.dicts = make([]*Interner, len(cols))
	for k := range b.dicts {
		b.dicts[k] = dict
	}
}

// SliceView re-points a view batch's columns at rows [lo, hi) of src.
func (b *Batch) SliceView(src [][]uint32, lo, hi int) {
	for k := range b.cols {
		b.cols[k] = src[k][lo:hi]
	}
	b.n = hi - lo
	b.capacity = b.n
}

// BatchCursor is the pull-based batch iterator: NextBatch returns the
// next batch and true, or (nil, false) at exhaustion. The yielded
// batch is owned by the caller (see the ownership contract above).
type BatchCursor interface {
	NextBatch() (*Batch, bool)
}

// BatchScanner is the optional columnar scan a StoredRel may offer:
// batches of the relation's stored ID columns in insertion order,
// without re-interning. *Relation implements it.
type BatchScanner interface {
	BatchScan() BatchCursor
}

// BatchScannerSized is BatchScanner with an explicit batch size, for
// the batch-size sweeps of the experiments and tests.
type BatchScannerSized interface {
	BatchScanSized(size int) BatchCursor
}

// NextCursor is the minimal tuple iterator the adapters consume; it is
// structurally identical to engine.Cursor, so cursors from any layer
// satisfy it without wrapping.
type NextCursor interface {
	Next() (Tuple, bool)
}

// BatchHolder is implemented by cursors that retain ownership of a
// pooled Batch between calls (or across an inner pull that may
// abort). ReleaseHeld releases whatever the cursor currently owns
// and is idempotent; governed evaluators register it as an abort
// cleanup so no abort path can strand a pooled batch. It must only
// be called once the cursor is quiescent (the boundary goroutine,
// after all workers have joined).
type BatchHolder interface{ ReleaseHeld() }

// ToBatches adapts a tuple cursor to a batch cursor: tuples are
// interned into one fresh per-stream dictionary and packed into pooled
// batches of up to capacity rows. It panics if a tuple's arity differs
// from arity. This is the tuple→batch half of the bidirectional
// adapter pair that lets operators migrate incrementally.
func ToBatches(in NextCursor, arity, capacity int) BatchCursor {
	return &tupleBatcher{in: in, arity: arity, capacity: capacity, dict: NewInterner()}
}

type tupleBatcher struct {
	in       NextCursor
	arity    int
	capacity int
	dict     *Interner
	staging  *Batch // batch being filled; owned until handed off
	done     bool
}

func (t *tupleBatcher) NextBatch() (*Batch, bool) {
	if t.done {
		return nil, false
	}
	b := NewBatchSized(t.arity, t.capacity)
	t.staging = b
	for k := 0; k < t.arity; k++ {
		b.SetDict(k, t.dict)
	}
	for b.n < t.capacity {
		tp, ok := t.in.Next()
		if !ok {
			t.done = true
			break
		}
		if len(tp) != t.arity {
			t.staging = nil
			b.Release()
			panic(fmt.Sprintf("rel: tuple arity %d batched at arity %d", len(tp), t.arity))
		}
		for k, v := range tp {
			b.cols[k][b.n] = t.dict.Intern(v)
		}
		b.n++
	}
	t.staging = nil
	if b.n == 0 {
		b.Release()
		return nil, false
	}
	return b, true
}

// ReleaseHeld implements BatchHolder: it releases the staging batch
// abandoned by an abort that unwound through the inner tuple cursor
// mid-fill.
func (t *tupleBatcher) ReleaseHeld() {
	b := t.staging
	t.staging = nil
	b.Release()
}

// ToTuples adapts a batch cursor to a tuple cursor, decoding each row
// into a fresh caller-owned tuple — the batch→tuple half of the
// adapter pair. Batches are released as they are exhausted.
func ToTuples(in BatchCursor) NextCursor { return &batchUnpacker{in: in} }

type batchUnpacker struct {
	in  BatchCursor
	cur *Batch
	row int
}

func (u *batchUnpacker) Next() (Tuple, bool) {
	for u.cur == nil || u.row >= u.cur.Len() {
		if u.cur != nil {
			u.cur.Release()
			u.cur = nil
		}
		b, ok := u.in.NextBatch()
		if !ok {
			return nil, false
		}
		u.cur, u.row = b, 0
	}
	t := make(Tuple, u.cur.Arity())
	for k := range t {
		t[k] = u.cur.Value(k, u.row)
	}
	u.row++
	return t, true
}

// ReleaseHeld implements BatchHolder: it releases the batch being
// unpacked when an abort unwound through a consumer mid-batch.
func (u *batchUnpacker) ReleaseHeld() {
	b := u.cur
	u.cur = nil
	b.Release()
}

// IDMap is a translation cache between dictionaries: it maps (source
// dictionary, source ID) pairs to IDs in a target dictionary, caching
// per source dictionary in a flat array indexed by the dense source
// ID — so after the first occurrence of a value, translation is one
// array load. It is the building block of every vectorized consumer
// that must reconcile batches from different dictionaries (sinks,
// join builds, dedup filters, divisor probes).
//
// An IDMap is owned by a single operator and is not safe for
// concurrent use; Lookup never mutates the target dictionary, so
// read-only probing of shared dictionaries is safe.
type IDMap struct {
	to *Interner
	m  map[*Interner][]uint32
	// One-entry memo of the last source dictionary and its translation
	// slice: consecutive rows of a batch stream overwhelmingly share
	// one dictionary, so the hot path is a pointer compare and an
	// array load instead of a map lookup per row.
	lastD  *Interner
	lastTr []uint32
}

// Translation cache encoding: 0 = not yet resolved, 1 = known absent
// from the target (Lookup only), id+2 otherwise.
const (
	xlatUnknown = 0
	xlatAbsent  = 1
	xlatOffset  = 2
)

// NewIDMap returns a cache translating into dictionary to.
func NewIDMap(to *Interner) *IDMap {
	return &IDMap{to: to, m: make(map[*Interner][]uint32)}
}

// To returns the target dictionary.
func (x *IDMap) To() *Interner { return x.to }

func (x *IDMap) slot(d *Interner, id uint32) []uint32 {
	tr := x.m[d]
	if int(id) >= len(tr) {
		n := d.Len()
		if n <= int(id) {
			n = int(id) + 1
		}
		grown := make([]uint32, n)
		copy(grown, tr)
		tr = grown
		x.m[d] = tr
	}
	x.lastD, x.lastTr = d, tr
	return tr
}

// Intern translates (d, id) into the target dictionary, interning the
// decoded value on first sight.
func (x *IDMap) Intern(d *Interner, id uint32) uint32 {
	if d == x.to {
		return id
	}
	if d == x.lastD && int(id) < len(x.lastTr) {
		if v := x.lastTr[id]; v >= xlatOffset {
			return v - xlatOffset
		}
	}
	tr := x.slot(d, id)
	if v := tr[id]; v >= xlatOffset {
		return v - xlatOffset
	}
	v := x.to.Intern(d.Value(id))
	tr[id] = v + xlatOffset
	return v
}

// Lookup translates (d, id) without mutating the target dictionary;
// ok is false when the value does not occur in the target. Negative
// results are cached too.
func (x *IDMap) Lookup(d *Interner, id uint32) (uint32, bool) {
	if d == x.to {
		return id, true
	}
	if d == x.lastD && int(id) < len(x.lastTr) {
		switch v := x.lastTr[id]; {
		case v >= xlatOffset:
			return v - xlatOffset, true
		case v == xlatAbsent:
			return 0, false
		}
	}
	tr := x.slot(d, id)
	switch v := tr[id]; {
	case v >= xlatOffset:
		return v - xlatOffset, true
	case v == xlatAbsent:
		return 0, false
	}
	v, ok := x.to.ID(d.Value(id))
	if !ok {
		tr[id] = xlatAbsent
		return 0, false
	}
	tr[id] = v + xlatOffset
	return v, true
}

// Batched wraps a store so that every relation scan is routed through
// the batch adapters (tuple → columnar batch → tuple) at the given
// batch capacity. Results and iteration order are unchanged — that is
// the adapter-equivalence property the test suites check — so any
// evaluator runs unmodified on a Batched store; it exists to exercise
// the adapter pair under real plans and to measure adapter overhead.
func Batched(s Store, capacity int) Store {
	if capacity < 1 {
		capacity = BatchCap
	}
	return &batchedStore{s: s, capacity: capacity}
}

type batchedStore struct {
	s        Store
	capacity int
}

func (b *batchedStore) Schema() Schema                { return b.s.Schema() }
func (b *batchedStore) Add(name string, t Tuple) bool { return b.s.Add(name, t) }
func (b *batchedStore) Size() int                     { return b.s.Size() }

func (b *batchedStore) View(name string) StoredRel {
	return &batchedRel{v: b.s.View(name), capacity: b.capacity}
}

type batchedRel struct {
	v        StoredRel
	capacity int
}

func (r *batchedRel) Arity() int            { return r.v.Arity() }
func (r *batchedRel) Len() int              { return r.v.Len() }
func (r *batchedRel) Contains(t Tuple) bool { return r.v.Contains(t) }

// Scan routes the underlying scan through ToBatches∘ToTuples; Reset
// rebuilds the pipeline from a fresh underlying scan, preserving the
// replayability the streaming evaluators' loop joins need.
func (r *batchedRel) Scan() TupleCursor {
	c := &batchedScan{r: r}
	c.Reset()
	return c
}

type batchedScan struct {
	r     *batchedRel
	inner NextCursor
}

func (c *batchedScan) Next() (Tuple, bool) { return c.inner.Next() }

func (c *batchedScan) Reset() {
	c.inner = ToTuples(ToBatches(c.r.v.Scan(), c.r.v.Arity(), c.r.capacity))
}
