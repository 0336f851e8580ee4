package ra

// This file implements the streaming executor's operators (entry
// points and plumbing are in stream.go): operators exchange columnar
// rel.Batch blocks (flat uint32 ID columns, ~1024 rows each) through
// the BatchCursor interface, so the per-row interface call and the
// per-row allocation of a tuple-at-a-time executor are amortized over
// a whole batch, and the hot loops — selection, dedup probes, join
// probes, difference membership — run on interned IDs through
// rel.IDMap translation caches: after the first occurrence of a value,
// a probe is an array load and an integer compare.
//
// Resident-state accounting is per operator — build tables, sinks and
// dedup filters grow the shared Meter by exactly the rows they hold —
// while the batches themselves are pooled transport buffers tracked
// separately by rel.BatchPoolStats, so the ST1–ST3 resident-memory
// story counts operator state only. (One deliberate exception: a
// pure-theta join whose stored right side lives on a backend other
// than the in-memory *rel.Relation is materialized — and metered —
// instead of replayed in place, because only the in-memory relation
// exposes the zero-copy ID columns the replay runs on.)
//
// Batch ownership follows the contract in rel: a cursor's caller owns
// the yielded batch and releases it (or passes it on); operators that
// reshape rows write into pooled batches and release their inputs.

import (
	"fmt"
	"math"

	"radiv/internal/rel"
)

// BatchCursor is the pull-based batch iterator of the vectorized
// executor, re-exported from rel so the sibling algebras and the
// engine exchange speak the same type.
type BatchCursor = rel.BatchCursor

// DrainBatches pulls in to exhaustion into the result sink, then
// drops the sink's translation cache: the cache pins every source
// dictionary the stream carried (operator dictionaries, adapter
// dictionaries), which must not outlive the evaluation on a
// caller-retained result.
func DrainBatches(in BatchCursor, sink *rel.Relation) {
	for b, ok := in.NextBatch(); ok; b, ok = in.NextBatch() {
		sink.AddBatch(b)
		b.Release()
	}
	sink.DropBatchCache()
}

// sinkHint sizes a result sink from the cost model's distinct-output
// estimate, clamped so a wild quadratic guess cannot balloon an empty
// result's allocation.
func sinkHint(d rel.ReadStore, e Expr) int {
	est := estimateSize(d, e).Distinct
	if math.IsNaN(est) || est <= 0 {
		return 0
	}
	if est > 1<<16 {
		return 1 << 16
	}
	return int(est)
}

// vecBuilder translates an expression tree into a batch-cursor plan.
// probeBucket carries consumer context one level down the recursion:
// when a join builds its probe (left) input, it holds the estimated
// per-probe candidate scan, so a projection directly below can weigh
// the dedup filter (cost.go). Zero elsewhere.
type vecBuilder struct {
	d           rel.ReadStore
	meter       *Meter
	capacity    int
	probeBucket float64
}

// newVecBuilder resolves the batch row capacity (batchSize <= 0 means
// rel.BatchCap).
func newVecBuilder(d rel.ReadStore, m *Meter, batchSize int) *vecBuilder {
	if batchSize <= 0 {
		batchSize = rel.BatchCap
	}
	return &vecBuilder{d: d, meter: m, capacity: batchSize}
}

// scan opens the columnar scan of a stored relation at the builder's
// batch capacity, guarded when the plan is governed (one governor
// check per batch boundary at every leaf).
func (b *vecBuilder) scan(v rel.StoredRel) BatchCursor {
	return b.meter.GuardBatches(ScanBatches(v, b.capacity))
}

// ScanBatches opens the columnar scan of a stored relation: straight
// off the stored ID columns when the backend offers them (the
// in-memory relation and shard views do), otherwise through the
// interning tuple→batch adapter. capacity <= 0 means rel.BatchCap.
// This is the scan resolution every vectorized executor (ra's, and
// sa/xra's through the exported surface) shares.
func ScanBatches(v rel.StoredRel, capacity int) BatchCursor {
	if capacity <= 0 {
		capacity = rel.BatchCap
	}
	if s, ok := v.(rel.BatchScannerSized); ok {
		return s.BatchScanSized(capacity)
	}
	if s, ok := v.(rel.BatchScanner); ok && capacity == rel.BatchCap {
		return s.BatchScan()
	}
	return rel.ToBatches(v.Scan(), v.Arity(), capacity)
}

func (b *vecBuilder) baseRel(n *Rel) rel.StoredRel {
	return rel.CheckView(b.d, n.Name, n.arity, "ra")
}

func (b *vecBuilder) batches(e Expr) (BatchCursor, *CountNode) {
	node := &CountNode{Expr: e}
	var cur BatchCursor
	dedup := false
	bucket := b.probeBucket
	b.probeBucket = 0
	switch n := e.(type) {
	case *Rel:
		cur = b.scan(b.baseRel(n))
	case *Union:
		l, ln := b.batches(n.L)
		r, rn := b.batches(n.E)
		node.Kids = []*CountNode{ln, rn}
		cur = &vecUnionCursor{l: l, r: r, arity: n.Arity(), meter: b.meter, capacity: b.capacity}
	case *Diff:
		l, ln := b.batches(n.L)
		node.Kids = []*CountNode{ln}
		dc := &vecDiffCursor{in: l, arity: n.Arity(), meter: b.meter}
		if base, ok := n.E.(*Rel); ok {
			// The subtrahend is a stored relation: probe it in place
			// through a translation cache, holding nothing.
			dc.stored = b.baseRel(base)
			node.Kids = append(node.Kids, &CountNode{Expr: n.E})
		} else {
			rc, rn := b.batches(n.E)
			dc.buildC = rc
			node.Kids = append(node.Kids, rn)
		}
		cur = dc
	case *Project:
		dedup = dedupProjection(b.d, n, bucket)
		in, kn := b.batches(n.E)
		node.Kids = []*CountNode{kn}
		cur = &vecProjectCursor{in: in, cols: n.Cols}
	case *Select:
		in, kn := b.batches(n.E)
		node.Kids = []*CountNode{kn}
		cur = &vecSelectCursor{in: in, i: n.I - 1, op: n.Op, j: n.J - 1}
	case *SelectConst:
		in, kn := b.batches(n.E)
		node.Kids = []*CountNode{kn}
		cur = &vecSelectConstCursor{in: in, i: n.I - 1, c: n.C}
	case *ConstTag:
		in, kn := b.batches(n.E)
		node.Kids = []*CountNode{kn}
		cur = newVecTagCursor(in, n.C)
	case *Join:
		b.probeBucket = joinBucket(b.d, n)
		l, ln := b.batches(n.L)
		node.Kids = []*CountNode{ln}
		if eqs := n.Cond.EqPairs(); len(eqs) > 0 {
			rc, rn := b.batches(n.E)
			node.Kids = append(node.Kids, rn)
			cur = newVecHashJoinCursor(l, rc, n.Cond, eqs, b.meter, b.capacity)
		} else {
			lj := &vecLoopJoinCursor{left: l, cond: n.Cond, meter: b.meter, capacity: b.capacity}
			b.meter.Watch(lj)
			if base, ok := n.E.(*Rel); ok {
				lj.stored = b.baseRel(base)
				node.Kids = append(node.Kids, &CountNode{Expr: n.E})
			} else {
				rc, rn := b.batches(n.E)
				lj.buildC = rc
				node.Kids = append(node.Kids, rn)
			}
			cur = lj
		}
	default:
		panic(fmt.Sprintf("ra: unknown expression %T", e))
	}
	counted := node.Count(cur)
	if dedup {
		// The filter sits outside the count, so the node's flow number
		// still reports what the operator emitted (duplicates included)
		// and only the downstream consumers see the deduplicated stream.
		return &vecDedupCursor{in: counted, arity: e.Arity(), meter: b.meter}, node
	}
	return counted, node
}

// FilterBatch compacts src to the rows where keep is true, calling
// keep exactly once per row in row order (stateful predicates — the
// dedup filter — rely on that). When every row passes, src itself is
// returned (ownership passes through); otherwise the kept rows are
// copied into a pooled batch and src is released. The result may be
// empty.
func FilterBatch(src *rel.Batch, keep func(row int) bool) *rel.Batch {
	n := src.Len()
	first := -1
	for row := 0; row < n; row++ {
		if !keep(row) {
			first = row
			break
		}
	}
	if first < 0 {
		return src
	}
	dst := rel.NewBatchSized(src.Arity(), n)
	dst.AdoptDicts(src)
	for k := 0; k < src.Arity(); k++ {
		copy(dst.WritableCol(k)[:first], src.Col(k)[:first])
	}
	dst.SetLen(first)
	for row := first + 1; row < n; row++ {
		if keep(row) {
			dst.AppendRowFrom(src, row)
		}
	}
	src.Release()
	return dst
}

// vecSelectCursor is σ_{i op j}: same-dictionary equality and
// inequality compare raw IDs; everything else decodes the two values.
type vecSelectCursor struct {
	in   BatchCursor
	i, j int
	op   Op
}

func (c *vecSelectCursor) NextBatch() (*rel.Batch, bool) {
	for {
		b, ok := c.in.NextBatch()
		if !ok {
			return nil, false
		}
		ci, cj := b.Col(c.i), b.Col(c.j)
		di, dj := b.Dict(c.i), b.Dict(c.j)
		var out *rel.Batch
		if di == dj && (c.op == OpEq || c.op == OpNe) {
			wantEq := c.op == OpEq
			out = FilterBatch(b, func(row int) bool { return (ci[row] == cj[row]) == wantEq })
		} else {
			op := c.op
			out = FilterBatch(b, func(row int) bool { return op.Eval(di.Value(ci[row]), dj.Value(cj[row])) })
		}
		if out.Len() > 0 {
			return out, true
		}
		out.Release()
	}
}

// vecSelectConstCursor is σ_{i=c}: the constant is resolved to an ID
// in the column's dictionary once, then the filter is a flat ID
// compare; a constant absent from the dictionary kills the whole
// batch without touching a row. A positive resolution is stable
// (interner IDs are never reassigned), but a negative one can go
// stale when the dictionary is still growing — a ToBatches stream
// interns as it packs — so an absent verdict is re-checked whenever
// the dictionary has grown since it was cached.
type vecSelectConstCursor struct {
	in BatchCursor
	i  int
	c  rel.Value

	dict    *rel.Interner
	dictLen int
	id      uint32
	present bool
}

func (c *vecSelectConstCursor) NextBatch() (*rel.Batch, bool) {
	for {
		b, ok := c.in.NextBatch()
		if !ok {
			return nil, false
		}
		if d := b.Dict(c.i); d != c.dict || (!c.present && d.Len() != c.dictLen) {
			c.dict, c.dictLen = d, d.Len()
			c.id, c.present = d.ID(c.c)
		}
		if !c.present {
			b.Release()
			continue
		}
		col, id := b.Col(c.i), c.id
		out := FilterBatch(b, func(row int) bool { return col[row] == id })
		if out.Len() > 0 {
			return out, true
		}
		out.Release()
	}
}

// vecTagCursor is τ_c: input columns are block-copied and one constant
// column — a single-entry dictionary, all IDs zero — is appended.
type vecTagCursor struct {
	in   BatchCursor
	dict *rel.Interner // contains exactly the tag constant, ID 0
}

func newVecTagCursor(in BatchCursor, c rel.Value) *vecTagCursor {
	d := rel.NewInterner()
	d.Intern(c)
	return &vecTagCursor{in: in, dict: d}
}

func (c *vecTagCursor) NextBatch() (*rel.Batch, bool) {
	b, ok := c.in.NextBatch()
	for ok && b.Len() == 0 {
		b.Release()
		b, ok = c.in.NextBatch()
	}
	if !ok {
		return nil, false
	}
	n := b.Len()
	ar := b.Arity()
	out := rel.NewBatchSized(ar+1, n)
	for k := 0; k < ar; k++ {
		copy(out.WritableCol(k)[:n], b.Col(k))
		out.SetDict(k, b.Dict(k))
	}
	tag := out.WritableCol(ar)[:n]
	for i := range tag {
		tag[i] = 0
	}
	out.SetDict(ar, c.dict)
	out.SetLen(n)
	b.Release()
	return out, true
}

// vecProjectCursor is π_{cols}: a column gather — each output column
// block-copies (possibly repeating or reordering) an input column with
// its dictionary. Deduplication is deferred to the consuming sink.
type vecProjectCursor struct {
	in   BatchCursor
	cols []int
}

func (c *vecProjectCursor) NextBatch() (*rel.Batch, bool) {
	b, ok := c.in.NextBatch()
	for ok && b.Len() == 0 {
		b.Release()
		b, ok = c.in.NextBatch()
	}
	if !ok {
		return nil, false
	}
	n := b.Len()
	out := rel.NewBatchSized(len(c.cols), n)
	for p, col := range c.cols {
		copy(out.WritableCol(p)[:n], b.Col(col-1))
		out.SetDict(p, b.Dict(col-1))
	}
	out.SetLen(n)
	b.Release()
	return out, true
}

// IDSet is the columnar hash set shared by the vectorized sinks (the
// union sink, the built diff subtrahend, the dedup filter) and — via
// the column-mapped variants — the sibling algebras' build tables
// (sa's semijoin key table): rows are translated into one canonical
// dictionary through an IDMap cache and stored in flat columns with a
// HashIDs index — insertion order preserved, so re-emission is in
// first-insertion order. An IDSet is owned by one operator
// and is not safe for concurrent use.
type IDSet struct {
	arity int
	dict  *rel.Interner
	xl    *rel.IDMap
	cols  [][]uint32
	index map[uint64]int32 // hash -> 1 + chain head row
	next  []int32          // per row: 1 + next row in chain (0 ends)
	n     int
	buf   []uint32

	// Probe acceleration for single-column sets: per probe dictionary,
	// a dense membership table built by translating the set's few
	// values INTO that dictionary — the inverse direction of xl — so a
	// probe is one array load with no per-row hashing at all. Tables
	// are built against the set size recorded in oneN and discarded
	// when the set grows.
	oneTbl map[*rel.Interner][]bool
	oneN   int
	lastD  *rel.Interner
	lastT  []bool
}

// NewIDSet returns an empty set of rows of the given arity.
func NewIDSet(arity int) *IDSet {
	d := rel.NewInterner()
	return &IDSet{
		arity: arity,
		dict:  d,
		xl:    rel.NewIDMap(d),
		cols:  make([][]uint32, arity),
		index: make(map[uint64]int32),
		buf:   make([]uint32, arity),
	}
}

// Len returns the number of distinct rows held.
func (s *IDSet) Len() int { return s.n }

func (s *IDSet) rowEqual(pos int) bool {
	for k, id := range s.buf {
		if s.cols[k][pos] != id {
			return false
		}
	}
	return true
}

// Add inserts row `row` of b, reporting whether it was new.
func (s *IDSet) Add(b *rel.Batch, row int) bool { return s.AddCols(b, row, nil) }

// AddCols is Add over a column subset: set column k is read from batch
// column cols[k] (0-based), so a consumer can key a set on the
// equality columns of a wider batch — sa's semijoin build table. A nil
// cols is the identity mapping.
func (s *IDSet) AddCols(b *rel.Batch, row int, cols []int) bool {
	for k := 0; k < s.arity; k++ {
		src := k
		if cols != nil {
			src = cols[k]
		}
		s.buf[k] = s.xl.Intern(b.Dict(src), b.Col(src)[row])
	}
	h := rel.HashIDs(s.buf)
	for pos := s.index[h]; pos != 0; pos = s.next[pos-1] {
		if s.rowEqual(int(pos - 1)) {
			return false
		}
	}
	s.next = append(s.next, s.index[h])
	s.index[h] = int32(s.n) + 1
	for k := range s.cols {
		s.cols[k] = append(s.cols[k], s.buf[k])
	}
	s.n++
	return true
}

// Contains probes row `row` of b without growing the set's dictionary.
func (s *IDSet) Contains(b *rel.Batch, row int) bool { return s.ContainsCols(b, row, nil) }

// ContainsCols is Contains over a column subset, mapped as in AddCols.
func (s *IDSet) ContainsCols(b *rel.Batch, row int, cols []int) bool {
	if s.arity == 1 {
		// Single-column fast path: a dense membership table over the
		// probe dictionary, one array load per row.
		src := 0
		if cols != nil {
			src = cols[0]
		}
		d, id := b.Dict(src), b.Col(src)[row]
		tbl := s.lastT
		if d != s.lastD || s.oneN != s.n {
			tbl = s.oneTable(d)
		}
		if int(id) < len(tbl) {
			return tbl[id]
		}
		// The probe dictionary grew past the table: resolve the late
		// ID through the forward cache (the set's dictionary holds
		// exactly the values added, so dictionary membership is set
		// membership).
		_, ok := s.xl.Lookup(d, id)
		return ok
	}
	for k := 0; k < s.arity; k++ {
		src := k
		if cols != nil {
			src = cols[k]
		}
		id, ok := s.xl.Lookup(b.Dict(src), b.Col(src)[row])
		if !ok {
			return false
		}
		s.buf[k] = id
	}
	for pos := s.index[rel.HashIDs(s.buf)]; pos != 0; pos = s.next[pos-1] {
		if s.rowEqual(int(pos - 1)) {
			return true
		}
	}
	return false
}

// oneTable returns the membership table for probe dictionary d,
// building it on first use (and rebuilding all tables when the set has
// grown since): each set value is reverse-looked-up in d once, so the
// per-probe cost is independent of how many distinct values flow past
// the probe — the DivisorTable trick, generalized.
func (s *IDSet) oneTable(d *rel.Interner) []bool {
	if s.oneTbl == nil || s.oneN != s.n {
		s.oneTbl = make(map[*rel.Interner][]bool)
		s.oneN = s.n
	}
	tbl, ok := s.oneTbl[d]
	if !ok {
		tbl = make([]bool, d.Len())
		for _, kid := range s.cols[0] {
			if pid, ok := d.ID(s.dict.Value(kid)); ok && int(pid) < len(tbl) {
				tbl[pid] = true
			}
		}
		s.oneTbl[d] = tbl
	}
	s.lastD, s.lastT = d, tbl
	return tbl
}

// Batches re-emits the set's contents in insertion order as view
// batches over its columns (valid until the next NextBatch call).
func (s *IDSet) Batches(capacity int) BatchCursor {
	c := &setCursor{s: s, size: capacity}
	c.view.MakeView(s.cols, s.dict)
	return c
}

type setCursor struct {
	s    *IDSet
	size int
	i    int
	view rel.Batch
}

func (c *setCursor) NextBatch() (*rel.Batch, bool) {
	if c.i >= c.s.n {
		return nil, false
	}
	hi := c.i + c.size
	if hi > c.s.n {
		hi = c.s.n
	}
	c.view.SliceView(c.s.cols, c.i, hi)
	c.i = hi
	return &c.view, true
}

// vecDedupCursor is the pipelined dedup filter at batch granularity:
// the IDSet holds one row per distinct tuple (charged to the meter,
// released at exhaustion) and each batch is compacted to its fresh
// rows.
type vecDedupCursor struct {
	in    BatchCursor
	arity int
	meter *Meter
	set   *IDSet
	held  int
}

func (c *vecDedupCursor) NextBatch() (*rel.Batch, bool) {
	if c.set == nil && c.held == 0 {
		c.set = NewIDSet(c.arity)
	}
	for {
		b, ok := c.in.NextBatch()
		if !ok {
			c.meter.Release(c.held)
			c.held = 0
			c.set = nil
			return nil, false
		}
		out := FilterBatch(b, func(row int) bool {
			if c.set.Add(b, row) {
				c.meter.Grow(1)
				c.held++
				return true
			}
			return false
		})
		if out.Len() > 0 {
			return out, true
		}
		out.Release()
	}
}

// vecUnionCursor is the blocking union sink: both inputs drain into
// one IDSet, whose distinct rows then stream out in first-insertion
// order, with the held state released at exhaustion.
type vecUnionCursor struct {
	l, r     BatchCursor
	arity    int
	meter    *Meter
	capacity int

	opened bool
	set    *IDSet
	out    BatchCursor
	held   int
}

func (c *vecUnionCursor) drain(in BatchCursor) {
	for b, ok := in.NextBatch(); ok; b, ok = in.NextBatch() {
		n := b.Len()
		for row := 0; row < n; row++ {
			if c.set.Add(b, row) {
				c.meter.Grow(1)
				c.held++
			}
		}
		b.Release()
	}
}

func (c *vecUnionCursor) NextBatch() (*rel.Batch, bool) {
	if !c.opened {
		c.opened = true
		c.set = NewIDSet(c.arity)
		c.drain(c.l)
		c.drain(c.r)
		c.out = c.set.Batches(c.capacity)
	}
	if c.out == nil {
		return nil, false
	}
	b, ok := c.out.NextBatch()
	if !ok {
		c.meter.Release(c.held)
		c.held = 0
		c.out, c.set = nil, nil
		return nil, false
	}
	return b, true
}

// vecDiffCursor streams the left input through a membership filter
// against the subtrahend: a stored in-memory relation is probed on its
// own index through a translation cache (holding nothing); any other
// stored backend is probed tuple-wise in place; a computed subtrahend
// is drained into an IDSet first.
type vecDiffCursor struct {
	in     BatchCursor
	buildC BatchCursor
	stored rel.StoredRel
	arity  int
	meter  *Meter

	opened    bool
	set       *IDSet
	storedRel *rel.Relation
	xl        *rel.IDMap
	ids       []uint32
	tbuf      rel.Tuple
	held      int
}

func (c *vecDiffCursor) NextBatch() (*rel.Batch, bool) {
	if !c.opened {
		c.opened = true
		if c.buildC != nil {
			c.set = NewIDSet(c.arity)
			for b, ok := c.buildC.NextBatch(); ok; b, ok = c.buildC.NextBatch() {
				n := b.Len()
				for row := 0; row < n; row++ {
					if c.set.Add(b, row) {
						c.meter.Grow(1)
						c.held++
					}
				}
				b.Release()
			}
		} else if r, ok := c.stored.(*rel.Relation); ok {
			c.storedRel = r
			c.xl = rel.NewIDMap(r.Interner())
			c.ids = make([]uint32, c.arity)
		}
	}
	for {
		b, ok := c.in.NextBatch()
		if !ok {
			c.meter.Release(c.held)
			c.held = 0
			c.set = nil
			return nil, false
		}
		out := FilterBatch(b, func(row int) bool { return !c.containsRow(b, row) })
		if out.Len() > 0 {
			return out, true
		}
		out.Release()
	}
}

func (c *vecDiffCursor) containsRow(b *rel.Batch, row int) bool {
	switch {
	case c.set != nil:
		return c.set.Contains(b, row)
	case c.storedRel != nil:
		for k := 0; k < c.arity; k++ {
			id, ok := c.xl.Lookup(b.Dict(k), b.Col(k)[row])
			if !ok {
				return false // a value the subtrahend has never seen
			}
			c.ids[k] = id
		}
		return c.storedRel.ContainsIDs(c.ids)
	default:
		c.tbuf = b.Row(c.tbuf, row)
		return c.stored.Contains(c.tbuf)
	}
}

// ColStore is one materialized build-side column: IDs translated into
// a store-owned dictionary through an IDMap, so probes from any input
// dictionary resolve with a cached array load. The vectorized joins —
// and, through the exported surface, sa's residual-semijoin build —
// append with Map.Intern and probe with Map.Lookup; IDs holds the
// stored column in append order, decoded by Dict.
type ColStore struct {
	// Dict is the store-owned dictionary IDs are drawn from.
	Dict *rel.Interner
	// Map is the translation cache into Dict.
	Map *rel.IDMap
	// IDs is the stored column, in append order.
	IDs []uint32
}

// NewColStore returns an empty column store with a fresh dictionary.
func NewColStore() *ColStore {
	d := rel.NewInterner()
	return &ColStore{Dict: d, Map: rel.NewIDMap(d)}
}

// Len returns the number of stored rows.
func (cs *ColStore) Len() int { return len(cs.IDs) }

// Append translates (d, id) into the store's dictionary and appends it.
func (cs *ColStore) Append(d *rel.Interner, id uint32) {
	cs.IDs = append(cs.IDs, cs.Map.Intern(d, id))
}

// PackKey mixes eq-column IDs like JoinKeyer.Key: with at most two
// atoms the IDs pack collision-free, beyond that rel.HashIDs bucketing
// is verified per candidate.
func PackKey(ids []uint32) uint64 {
	if len(ids) <= 2 {
		var h uint64
		for _, id := range ids {
			h = h<<32 | uint64(id)
		}
		return h
	}
	return rel.HashIDs(ids)
}

// vecHashJoinCursor is the equality-keyed hash join: the build side is
// materialized into per-column ID stores plus a key index, and probe
// batches stream against it — probe keys resolve through the build
// columns' translation caches, equality atoms verify on raw IDs, and
// only residual (non-equality) atoms decode values. Output batches
// carry the probe side's dictionaries on the left columns and the
// build stores' on the right, so nothing is re-interned on the way
// out.
type vecHashJoinCursor struct {
	left     BatchCursor
	buildC   BatchCursor
	eqs      [][2]int
	resid    []Atom
	meter    *Meter
	capacity int

	opened bool
	build  []*ColStore
	index  map[uint64][]int32
	rows   int
	held   int

	probe *rel.Batch
	prow  int
	cands []int32
	ci    int
	pids  []uint32
	kbuf  []uint32
	out   *rel.Batch
}

func newVecHashJoinCursor(left, buildC BatchCursor, cond Cond, eqs [][2]int, m *Meter, capacity int) *vecHashJoinCursor {
	c := &vecHashJoinCursor{
		left: left, buildC: buildC, eqs: eqs, meter: m, capacity: capacity,
		pids: make([]uint32, len(eqs)), kbuf: make([]uint32, len(eqs)),
	}
	for _, at := range cond {
		if at.Op != OpEq {
			c.resid = append(c.resid, at)
		}
	}
	m.Watch(c)
	return c
}

// ReleaseHeld implements rel.BatchHolder: the hash join retains the
// probe batch and the staging output batch across NextBatch calls;
// both are released when an abort unwinds through the cursor.
func (c *vecHashJoinCursor) ReleaseHeld() {
	p, o := c.probe, c.out
	c.probe, c.out = nil, nil
	p.Release()
	o.Release()
}

func (c *vecHashJoinCursor) openBuild() {
	c.index = make(map[uint64][]int32)
	for b, ok := c.buildC.NextBatch(); ok; b, ok = c.buildC.NextBatch() {
		n := b.Len()
		if c.build == nil {
			c.build = make([]*ColStore, b.Arity())
			for k := range c.build {
				c.build[k] = NewColStore()
			}
		}
		base := c.rows
		for k, cs := range c.build {
			col, d := b.Col(k), b.Dict(k)
			for row := 0; row < n; row++ {
				cs.Append(d, col[row])
			}
		}
		c.rows += n
		c.meter.Grow(n)
		c.held += n
		for row := 0; row < n; row++ {
			for x, p := range c.eqs {
				c.kbuf[x] = c.build[p[1]-1].IDs[base+row]
			}
			k := PackKey(c.kbuf)
			c.index[k] = append(c.index[k], int32(base+row))
		}
		b.Release()
	}
}

// loadCands resolves the current probe row's key through the build
// columns' caches; a value absent from a build column means no match.
func (c *vecHashJoinCursor) loadCands() {
	c.cands, c.ci = nil, 0
	if c.rows == 0 {
		return
	}
	for x, p := range c.eqs {
		col := p[0] - 1
		id, ok := c.build[p[1]-1].Map.Lookup(c.probe.Dict(col), c.probe.Col(col)[c.prow])
		if !ok {
			return
		}
		c.pids[x] = id
	}
	c.cands = c.index[PackKey(c.pids)]
}

func (c *vecHashJoinCursor) verify(brow int) bool {
	for x, p := range c.eqs {
		if c.build[p[1]-1].IDs[brow] != c.pids[x] {
			return false
		}
	}
	for _, at := range c.resid {
		bs := c.build[at.R-1]
		if !at.Op.Eval(c.probe.Value(at.L-1, c.prow), bs.Dict.Value(bs.IDs[brow])) {
			return false
		}
	}
	return true
}

func (c *vecHashJoinCursor) emit(brow int) {
	la := c.probe.Arity()
	if c.out == nil {
		c.out = rel.NewBatchSized(la+len(c.build), c.capacity)
		for k := 0; k < la; k++ {
			c.out.SetDict(k, c.probe.Dict(k))
		}
		for k, cs := range c.build {
			c.out.SetDict(la+k, cs.Dict)
		}
	}
	row := c.out.Len()
	for k := 0; k < la; k++ {
		c.out.WritableCol(k)[row] = c.probe.Col(k)[c.prow]
	}
	for k, cs := range c.build {
		c.out.WritableCol(la + k)[row] = cs.IDs[brow]
	}
	c.out.SetLen(row + 1)
}

func (c *vecHashJoinCursor) NextBatch() (*rel.Batch, bool) {
	if !c.opened {
		c.opened = true
		c.openBuild()
	}
	for {
		if c.probe == nil {
			// Flush at probe-batch boundaries, so one output batch never
			// mixes left columns from two probe dictionaries.
			if c.out != nil && c.out.Len() > 0 {
				o := c.out
				c.out = nil
				return o, true
			}
			b, ok := c.left.NextBatch()
			if !ok {
				c.out.Release()
				c.out = nil
				c.meter.Release(c.held)
				c.held = 0
				c.build, c.index, c.cands = nil, nil, nil
				return nil, false
			}
			if b.Len() == 0 {
				b.Release()
				continue
			}
			c.probe, c.prow = b, 0
			c.loadCands()
		}
		if c.ci >= len(c.cands) {
			c.prow++
			if c.prow >= c.probe.Len() {
				c.probe.Release()
				c.probe = nil
				continue
			}
			c.loadCands()
			continue
		}
		brow := int(c.cands[c.ci])
		c.ci++
		if !c.verify(brow) {
			continue
		}
		c.emit(brow)
		if c.out.Full() {
			o := c.out
			c.out = nil
			return o, true
		}
	}
}

// vecLoopJoinCursor handles joins without equality atoms. The right
// side is, in preference order: the stored in-memory relation's ID
// columns replayed in place (zero copies, nothing held); a
// materialized column store (computed right child, or a stored
// relation on a non-in-memory backend — see the file comment). The
// empty condition — the cartesian product — is a pure block copy: the
// probe value is broadcast down the left columns while the right
// columns are copied in slabs.
type vecLoopJoinCursor struct {
	left     BatchCursor
	buildC   BatchCursor
	stored   rel.StoredRel
	cond     Cond
	meter    *Meter
	capacity int

	opened bool
	rcols  [][]uint32
	rdicts []*rel.Interner
	rn     int
	held   int

	probe *rel.Batch
	prow  int
	ri    int
	out   *rel.Batch
}

// ReleaseHeld implements rel.BatchHolder: the loop join retains the
// probe batch and the staging output batch across NextBatch calls;
// both are released when an abort unwinds through the cursor.
func (c *vecLoopJoinCursor) ReleaseHeld() {
	p, o := c.probe, c.out
	c.probe, c.out = nil, nil
	p.Release()
	o.Release()
}

func (c *vecLoopJoinCursor) open() {
	switch {
	case c.buildC != nil:
		c.materialize(c.buildC)
	default:
		if r, ok := c.stored.(*rel.Relation); ok {
			cols, dict := r.IDColumns()
			c.rcols = cols
			c.rdicts = make([]*rel.Interner, len(cols))
			for k := range c.rdicts {
				c.rdicts[k] = dict
			}
			c.rn = r.Len()
			return
		}
		// Non-in-memory stored backend: materialize (and meter) a
		// columnar copy instead of replaying the backend per probe row.
		tb := rel.ToBatches(c.stored.Scan(), c.stored.Arity(), c.capacity)
		c.meter.Watch(tb)
		c.materialize(tb)
	}
}

// materialize drains in into per-column ID stores, charging every
// buffered row to the meter.
func (c *vecLoopJoinCursor) materialize(in BatchCursor) {
	c.rcols, c.rdicts, c.rn = MaterializeBatchColumns(in, c.meter)
	c.held += c.rn
}

// MaterializeBatchColumns drains in into per-column ID stores and
// returns the flat columns with their store-owned dictionaries,
// charging every buffered row to m. The caller owns the buffered
// state: it must Release the returned row count from m when done with
// the columns. Shared by the loop-replay sides of the vectorized theta
// joins here and the theta semijoins in internal/sa.
func MaterializeBatchColumns(in BatchCursor, m *Meter) (cols [][]uint32, dicts []*rel.Interner, rows int) {
	var stores []*ColStore
	for b, ok := in.NextBatch(); ok; b, ok = in.NextBatch() {
		n := b.Len()
		if stores == nil {
			stores = make([]*ColStore, b.Arity())
			for k := range stores {
				stores[k] = NewColStore()
			}
		}
		for k, cs := range stores {
			col, d := b.Col(k), b.Dict(k)
			for row := 0; row < n; row++ {
				cs.Append(d, col[row])
			}
		}
		rows += n
		m.Grow(n)
		b.Release()
	}
	cols = make([][]uint32, len(stores))
	dicts = make([]*rel.Interner, len(stores))
	for k, cs := range stores {
		cols[k] = cs.IDs
		dicts[k] = cs.Dict
	}
	return cols, dicts, rows
}

func (c *vecLoopJoinCursor) ensureOut() {
	if c.out != nil {
		return
	}
	la := c.probe.Arity()
	c.out = rel.NewBatchSized(la+len(c.rcols), c.capacity)
	for k := 0; k < la; k++ {
		c.out.SetDict(k, c.probe.Dict(k))
	}
	for k := range c.rcols {
		c.out.SetDict(la+k, c.rdicts[k])
	}
}

func (c *vecLoopJoinCursor) holds() bool {
	for _, at := range c.cond {
		if !at.Op.Eval(c.probe.Value(at.L-1, c.prow), c.rdicts[at.R-1].Value(c.rcols[at.R-1][c.ri])) {
			return false
		}
	}
	return true
}

func (c *vecLoopJoinCursor) NextBatch() (*rel.Batch, bool) {
	if !c.opened {
		c.opened = true
		c.open()
	}
	for {
		if c.probe == nil {
			if c.out != nil && c.out.Len() > 0 {
				o := c.out
				c.out = nil
				return o, true
			}
			b, ok := c.left.NextBatch()
			if !ok {
				c.out.Release()
				c.out = nil
				c.meter.Release(c.held)
				c.held = 0
				c.rcols, c.rdicts = nil, nil
				return nil, false
			}
			if b.Len() == 0 {
				b.Release()
				continue
			}
			c.probe, c.prow, c.ri = b, 0, 0
		}
		if c.prow >= c.probe.Len() {
			c.probe.Release()
			c.probe = nil
			continue
		}
		if c.ri >= c.rn {
			c.prow++
			c.ri = 0
			continue
		}
		if len(c.cond) == 0 {
			// Cartesian slab: fill as much of the output batch as the
			// remaining right rows allow in one block copy.
			c.ensureOut()
			la := c.probe.Arity()
			start := c.out.Len()
			m := c.capacity - start
			if rest := c.rn - c.ri; m > rest {
				m = rest
			}
			for k := 0; k < la; k++ {
				id := c.probe.Col(k)[c.prow]
				dst := c.out.WritableCol(k)[start : start+m]
				for i := range dst {
					dst[i] = id
				}
			}
			for k := range c.rcols {
				copy(c.out.WritableCol(la + k)[start:start+m], c.rcols[k][c.ri:c.ri+m])
			}
			c.out.SetLen(start + m)
			c.ri += m
			if c.out.Full() {
				o := c.out
				c.out = nil
				return o, true
			}
			continue
		}
		if c.holds() {
			c.ensureOut()
			la := c.probe.Arity()
			row := c.out.Len()
			for k := 0; k < la; k++ {
				c.out.WritableCol(k)[row] = c.probe.Col(k)[c.prow]
			}
			for k := range c.rcols {
				c.out.WritableCol(la + k)[row] = c.rcols[k][c.ri]
			}
			c.out.SetLen(row + 1)
			c.ri++
			if c.out.Full() {
				o := c.out
				c.out = nil
				return o, true
			}
			continue
		}
		c.ri++
	}
}

// The constructors below expose the generic batch-operator cursors to
// the sibling algebras' vectorized evaluators (internal/sa,
// internal/xra) and the planner's mixed executor: one implementation
// of selection, projection, sinks and joins serves every executor.
// Column indices are 1-based, as in the expression nodes.

// NewSelectBatchCursor streams σ_{i op j} over batches (columns
// 1-based).
func NewSelectBatchCursor(in BatchCursor, i int, op Op, j int) BatchCursor {
	return &vecSelectCursor{in: in, i: i - 1, op: op, j: j - 1}
}

// NewSelectConstBatchCursor streams σ_{i=c} over batches (i 1-based).
func NewSelectConstBatchCursor(in BatchCursor, i int, c rel.Value) BatchCursor {
	return &vecSelectConstCursor{in: in, i: i - 1, c: c}
}

// NewConstTagBatchCursor streams τ_c over batches.
func NewConstTagBatchCursor(in BatchCursor, c rel.Value) BatchCursor {
	return newVecTagCursor(in, c)
}

// NewProjectBatchCursor streams π_{cols} over batches (cols 1-based);
// deduplication is deferred to the consuming sink.
func NewProjectBatchCursor(in BatchCursor, cols []int) BatchCursor {
	return &vecProjectCursor{in: in, cols: cols}
}

// NewUnionSinkBatchCursor drains both inputs into one deduplicated
// IDSet and streams it out in insertion order, releasing the held
// state at exhaustion.
func NewUnionSinkBatchCursor(l, r BatchCursor, arity int, m *Meter, capacity int) BatchCursor {
	return &vecUnionCursor{l: l, r: r, arity: arity, meter: m, capacity: capacity}
}

// NewDiffBatchCursor streams left through a membership filter against
// the subtrahend: a stored relation is probed in place (holding
// nothing), otherwise build is materialized first. Exactly one of
// build and stored must be non-nil.
func NewDiffBatchCursor(left, build BatchCursor, stored rel.StoredRel, arity int, m *Meter) BatchCursor {
	return &vecDiffCursor{in: left, buildC: build, stored: stored, arity: arity, meter: m}
}

// NewHashJoinBatchCursor builds the equality-keyed vectorized hash
// join: the build side is materialized into per-column ID stores plus
// a PackKey index, and probe batches stream against it. cond must
// contain at least one equality atom.
func NewHashJoinBatchCursor(left, build BatchCursor, cond Cond, m *Meter, capacity int) BatchCursor {
	eqs := cond.EqPairs()
	if len(eqs) == 0 {
		panic("ra: NewHashJoinBatchCursor requires an equality atom")
	}
	return newVecHashJoinCursor(left, build, cond, eqs, m, capacity)
}

// NewLoopJoinBatchCursor replays the right side per probe row — in
// place (zero copies, nothing held) when stored is the in-memory
// relation, otherwise from a materialized, metered column store (see
// the file comment for the one resident-parity exception). Exactly one
// of build and stored must be non-nil.
func NewLoopJoinBatchCursor(left, build BatchCursor, stored rel.StoredRel, cond Cond, m *Meter, capacity int) BatchCursor {
	c := &vecLoopJoinCursor{left: left, buildC: build, stored: stored, cond: cond, meter: m, capacity: capacity}
	m.Watch(c)
	return c
}

// OpenBatchStream validates e and compiles it into a streaming plan
// over d, charging operator state to m — the hook through which the
// extended algebra pipelines wrapped pure-RA subexpressions
// batch-natively, sharing the enclosing plan's meter. batchSize is
// the batch row capacity (0 means rel.BatchCap). The caller pulls the
// cursor to exhaustion (owning each yielded batch) and then folds the
// returned node's flow counts into its own trace.
func OpenBatchStream(e Expr, d rel.ReadStore, m *Meter, batchSize int) (BatchCursor, *CountNode) {
	if err := Validate(e); err != nil {
		panic("ra: invalid expression: " + err.Error())
	}
	return newVecBuilder(d, m, batchSize).batches(e)
}
