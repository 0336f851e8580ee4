package xra

// This file implements the streaming executor for the extended
// algebra: operators exchange columnar rel.Batch blocks. Wrapped
// pure-RA subexpressions pipeline batch-natively through
// ra.OpenBatchStream — sharing the enclosing plan's resident meter and
// contributing their per-node flow counts to the trace — joins are
// ra's hash/loop join cursors, and γ gathers group keys columnar-ly:
// group columns are translated into one key dictionary through
// rel.IDMap caches, so after the first occurrence of a value, grouping
// a row is an array load, a hash of flat IDs, and an integer-compare
// chain walk (no per-row tuple is built, and key equality is ID
// equality — exact, because the IDs live in a single dictionary). The
// static duplicate-possibility analysis (mayEmitDuplicates, stream.go)
// decides where exact count(*) must deduplicate full rows, through an
// ra.IDSet.
//
// The accumulator charges the meter one entry per group, per distinct
// counted value and per deduplicated input row; emission is
// first-occurrence group order, with the SQL-style zero row for an
// empty grand aggregate.

import (
	"fmt"
	"slices"

	"radiv/internal/exec"
	"radiv/internal/ra"
	"radiv/internal/rel"
)

// EvalVectorized evaluates the expression with the streaming executor
// and returns the result relation — always a fresh relation owned by
// the caller — and the trace. Step sizes count the tuples emitted by
// each operator; wrapped RA steps report the RA executor's flow
// counts. The expression is validated first, as in EvalTraced. The
// governor and batch size work as in ra.EvalVectorized — wrapped RA
// subplans share the governed meter — with a nil governor running
// ungoverned and batchSize 0 meaning rel.BatchCap.
func EvalVectorized(g *exec.Governor, e Expr, d rel.ReadStore, batchSize int) (*rel.Relation, *ra.Trace) {
	if err := Validate(e); err != nil {
		panic("xra: invalid expression: " + err.Error())
	}
	if batchSize <= 0 {
		batchSize = rel.BatchCap
	}
	meter := ra.NewGovernedMeter(g)
	b := &xVecBuilder{d: d, meter: meter, capacity: batchSize}
	cur, root := b.batches(e)
	out := rel.NewRelation(e.Arity())
	ra.DrainBatches(meter.GuardBatches(cur), out)
	return out, root.Trace(meter)
}

// xVecBuilder translates an extended-algebra expression tree into a
// batch-cursor plan.
type xVecBuilder struct {
	d        rel.ReadStore
	meter    *ra.Meter
	capacity int
}

func (b *xVecBuilder) batches(e Expr) (ra.BatchCursor, *ra.CountNode) {
	node := &ra.CountNode{Expr: e}
	var cur ra.BatchCursor
	switch n := e.(type) {
	case *Wrap:
		// The Wrap itself is transparent: the inner plan counts its own
		// flows, and its nodes stand in the trace where the Wrap is —
		// the materialized evaluator records a step per inner RA node
		// and none for the Wrap.
		return ra.OpenBatchStream(n.E, b.d, b.meter, b.capacity)
	case *Gamma:
		in, kn := b.batches(n.E)
		node.Kids = []*ra.CountNode{kn}
		cur = &vecGammaCursor{in: in, g: n, inputArity: n.E.Arity(),
			dedupAll: n.CountCol == 0 && mayEmitDuplicates(n.E), meter: b.meter, capacity: b.capacity}
	case *Join:
		l, ln := b.batches(n.L)
		node.Kids = []*ra.CountNode{ln}
		if len(n.Cond.EqPairs()) > 0 {
			rc, rn := b.batches(n.E)
			node.Kids = append(node.Kids, rn)
			cur = ra.NewHashJoinBatchCursor(l, rc, n.Cond, b.meter, b.capacity)
		} else if base := b.wrappedBaseRel(n.E); base != nil {
			// Pure-theta join against a wrapped stored relation: replay
			// it in place per probe row, holding nothing — the same
			// zero-resident path the ra and sa executors take for stored
			// right sides. The Wrap node still appears in the trace, with
			// zero flow, as stored relations consumed in place do.
			node.Kids = append(node.Kids, &ra.CountNode{Expr: n.E})
			cur = ra.NewLoopJoinBatchCursor(l, nil, base, n.Cond, b.meter, b.capacity)
		} else {
			rc, rn := b.batches(n.E)
			node.Kids = append(node.Kids, rn)
			cur = ra.NewLoopJoinBatchCursor(l, rc, nil, n.Cond, b.meter, b.capacity)
		}
	case *Project:
		in, kn := b.batches(n.E)
		node.Kids = []*ra.CountNode{kn}
		cur = ra.NewProjectBatchCursor(in, n.Cols)
	default:
		panic(fmt.Sprintf("xra: unknown expression %T", e))
	}
	return node.Count(cur), node
}

// wrappedBaseRel unwraps a Wrap around a bare relation name and
// resolves its store view, or returns nil when e is anything else —
// the detector behind the in-place replay of stored theta-join sides.
func (b *xVecBuilder) wrappedBaseRel(e Expr) rel.StoredRel {
	w, ok := e.(*Wrap)
	if !ok {
		return nil
	}
	r, ok := w.E.(*ra.Rel)
	if !ok {
		return nil
	}
	return rel.CheckView(b.d, r.Name, r.Arity(), "xra")
}

// NewGammaBatchCursor builds a streaming γ cursor for external plan
// builders (internal/plan's mixed executor): the input is drained into
// the interned accumulator and the aggregate rows stream out, exactly
// as the xra executor's own γ node. dedupAll must be set when countCol
// is 0 and the input can deliver duplicate tuples (mayEmitDuplicates'
// analysis) — count(*) is only exact over a set. Column indices are
// validated against inputArity with the usual "xra:"-prefixed panics.
// capacity bounds the emitted batches (0 means rel.BatchCap).
func NewGammaBatchCursor(in ra.BatchCursor, groupCols []int, countCol, inputArity int, dedupAll bool, m *ra.Meter, capacity int) ra.BatchCursor {
	for _, c := range groupCols {
		if c < 1 || c > inputArity {
			panic(fmt.Sprintf("xra: group column %d out of range 1..%d", c, inputArity))
		}
	}
	if countCol < 0 || countCol > inputArity {
		panic(fmt.Sprintf("xra: count column %d out of range 0..%d", countCol, inputArity))
	}
	if capacity <= 0 {
		capacity = rel.BatchCap
	}
	g := &Gamma{GroupCols: append([]int(nil), groupCols...), CountCol: countCol}
	return &vecGammaCursor{in: in, g: g, inputArity: inputArity,
		dedupAll: countCol == 0 && dedupAll, meter: m, capacity: capacity}
}

// vecGammaGroup is one group of the batch accumulator: its key held as
// flat IDs in the accumulator's key dictionary (key equality is ID
// equality), the distinct-counted-value set, and the count.
type vecGammaGroup struct {
	keyIDs []uint32
	// seen marks the distinct counted-value IDs this group has
	// absorbed, indexed by the accumulator's value dictionary — value
	// IDs are dense, so distinctness is an array load.
	seen []bool
	n    int
}

// gammaBatchAgg is the executor's γ accumulator: group keys and
// counted values are translated into accumulator-owned dictionaries
// through rel.IDMap caches (amortizing interning over batch dictionary
// reuse), groups are found by a HashIDs bucket walk comparing flat
// IDs, and exact count(*) over duplicate-capable inputs deduplicates
// full rows in an ra.IDSet. Metered entries are groups, distinct
// counted values and deduplicated rows.
type gammaBatchAgg struct {
	g       *Gamma
	keys    *rel.Interner
	keysXl  *rel.IDMap
	vals    *rel.Interner
	valsXl  *rel.IDMap
	buckets map[uint64][]int32
	byKey   []int32 // single group column: 1 + group index by key ID
	groups  []*vecGammaGroup
	idbuf   []uint32
	seen    *ra.IDSet // distinct input rows; only when dedupAll and CountCol == 0
	held    int
}

func newGammaBatchAgg(g *Gamma, inputArity int, dedupAll bool) *gammaBatchAgg {
	a := &gammaBatchAgg{
		g:       g,
		keys:    rel.NewInterner(),
		buckets: make(map[uint64][]int32),
		idbuf:   make([]uint32, len(g.GroupCols)),
	}
	a.keysXl = rel.NewIDMap(a.keys)
	if g.CountCol > 0 {
		a.vals = rel.NewInterner()
		a.valsXl = rel.NewIDMap(a.vals)
	} else if dedupAll {
		a.seen = ra.NewIDSet(inputArity)
	}
	return a
}

// add folds row `row` of b into the aggregate, returning the number of
// new accumulator entries created (for resident metering).
func (a *gammaBatchAgg) add(b *rel.Batch, row int) int {
	grew := 0
	if a.seen != nil {
		if !a.seen.Add(b, row) {
			return 0
		}
		grew++
	}
	var grp *vecGammaGroup
	if len(a.g.GroupCols) == 1 {
		// Single-key fast path: key IDs are dense in the key
		// dictionary, so the group is an array load away — no hash, no
		// chain walk.
		c := a.g.GroupCols[0]
		kid := a.keysXl.Intern(b.Dict(c-1), b.Col(c - 1)[row])
		if int(kid) >= len(a.byKey) {
			grown := make([]int32, a.keys.Len())
			copy(grown, a.byKey)
			a.byKey = grown
		}
		if gi := a.byKey[kid]; gi != 0 {
			grp = a.groups[gi-1]
		} else {
			grp = &vecGammaGroup{keyIDs: []uint32{kid}}
			a.byKey[kid] = int32(len(a.groups)) + 1
			a.groups = append(a.groups, grp)
			grew++
		}
	} else {
		for i, c := range a.g.GroupCols {
			a.idbuf[i] = a.keysXl.Intern(b.Dict(c-1), b.Col(c - 1)[row])
		}
		h := rel.HashIDs(a.idbuf)
		for _, gi := range a.buckets[h] {
			cand := a.groups[gi]
			if idsEqual(cand.keyIDs, a.idbuf) {
				grp = cand
				break
			}
		}
		if grp == nil {
			grp = &vecGammaGroup{keyIDs: append([]uint32(nil), a.idbuf...)}
			a.buckets[h] = append(a.buckets[h], int32(len(a.groups)))
			a.groups = append(a.groups, grp)
			grew++
		}
	}
	if a.g.CountCol == 0 {
		grp.n++
	} else {
		vid := a.valsXl.Intern(b.Dict(a.g.CountCol-1), b.Col(a.g.CountCol - 1)[row])
		if n := a.vals.Len(); int(vid) >= len(grp.seen) {
			// Grow with append's amortized capacity: value IDs arrive
			// in increasing order, so an exact-size copy would
			// reallocate on nearly every new value.
			grp.seen = slices.Grow(grp.seen, n-len(grp.seen))[:n]
		}
		if !grp.seen[vid] {
			grp.seen[vid] = true
			grp.n++
			grew++
		}
	}
	a.held += grew
	return grew
}

func idsEqual(a, b []uint32) bool {
	for i, id := range a {
		if b[i] != id {
			return false
		}
	}
	return true
}

// vecGammaCursor streams its input into a gammaBatchAgg, then emits
// the aggregate rows as pooled batches in group first-occurrence
// order: group-key columns carry the accumulator's key dictionary,
// and the count column a fresh dictionary of the distinct counts.
type vecGammaCursor struct {
	in         ra.BatchCursor
	g          *Gamma
	inputArity int
	dedupAll   bool
	meter      *ra.Meter
	capacity   int

	opened bool
	agg    *gammaBatchAgg
	counts *rel.Interner
	gi     int
	done   bool
}

func (c *vecGammaCursor) NextBatch() (*rel.Batch, bool) {
	if !c.opened {
		c.opened = true
		c.agg = newGammaBatchAgg(c.g, c.inputArity, c.dedupAll)
		for b, ok := c.in.NextBatch(); ok; b, ok = c.in.NextBatch() {
			n := b.Len()
			for row := 0; row < n; row++ {
				if grew := c.agg.add(b, row); grew > 0 {
					c.meter.Grow(grew)
				}
			}
			b.Release()
		}
		c.counts = rel.NewInterner()
	}
	if c.done {
		return nil, false
	}
	ng := len(c.agg.groups)
	if c.gi < ng {
		k := len(c.g.GroupCols)
		out := rel.NewBatchSized(k+1, c.capacity)
		for i := 0; i < k; i++ {
			out.SetDict(i, c.agg.keys)
		}
		out.SetDict(k, c.counts)
		hi := c.gi + c.capacity
		if hi > ng {
			hi = ng
		}
		rows := 0
		for ; c.gi < hi; c.gi++ {
			grp := c.agg.groups[c.gi]
			for i := 0; i < k; i++ {
				out.WritableCol(i)[rows] = grp.keyIDs[i]
			}
			out.WritableCol(k)[rows] = c.counts.Intern(rel.Int(int64(grp.n)))
			rows++
		}
		out.SetLen(rows)
		return out, true
	}
	emitZero := len(c.g.GroupCols) == 0 && ng == 0
	c.done = true
	c.meter.Release(c.agg.held)
	c.agg = nil
	if emitZero {
		// Grand aggregate over an empty input is a single zero row, as
		// in SQL.
		out := rel.NewBatchSized(1, c.capacity)
		out.SetDict(0, c.counts)
		out.WritableCol(0)[0] = c.counts.Intern(rel.Int(0))
		out.SetLen(1)
		return out, true
	}
	return nil, false
}
