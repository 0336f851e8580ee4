package ra

// This file holds the entry points and plumbing of the streaming
// executor: a pull-based plan whose operators exchange columnar
// rel.Batch blocks (vector.go) instead of materializing every
// subexpression. Selections, constant selections, constant tagging and
// projections are fully pipelined (projection defers deduplication:
// every consumer in this algebra is either another pipelined operator
// or a sink that deduplicates, so duplicate rows are consumed
// harmlessly). Joins materialize only their build side and stream the
// probe side. Union and difference remain blocking sinks, as set
// semantics requires.
//
// The point of the exercise is observability: the paper's dichotomy
// (Theorem 17) is about intermediate-result *sizes*, and the
// materialized evaluator can only report what it materializes. The
// streaming trace separates the two axes: TraceStep sizes and
// MaxIntermediate count the tuples that *flow* through each operator,
// while MaxResident records the peak number of tuples the executor
// actually *holds* in operator state (build tables, sinks) at any one
// moment. On the classical division expression the flow stays
// quadratic — the paper proves it must — but the resident footprint
// drops to linear, because the quadratic product is never stored.
//
// The building blocks — Meter, CountNode, OpenBatchStream, the batch
// operator constructors — are exported so the sibling algebras
// (internal/sa, internal/xra) and the planner run their own plans on
// the same substrate, share one resident meter across a mixed plan,
// and report through the one Trace type.

import (
	"fmt"

	"radiv/internal/exec"
	"radiv/internal/rel"
)

// EvalVectorized evaluates the expression with the streaming executor
// and returns the result relation — always a fresh relation owned by
// the caller — and the trace. Like every evaluator entry point, it
// accepts any rel.ReadStore backend; base relations are scanned in
// insertion order, so the result sequence is identical across
// backends holding the same data.
//
// Step sizes count the tuples emitted by each operator — for
// dedup-deferred projections this can exceed the node's set
// cardinality, and for stored relations consumed in place (the
// subtrahend of a difference, the replayed side of a cartesian join)
// it is zero, because no tuples flow through the operator graph for
// them. MaxResident is filled in (see Trace). The expression is
// validated first, as in EvalTraced.
//
// g governs the run: cancellation and its Limits are enforced at
// every batch boundary, and pooled batches held across calls are
// registered for release on abort. The caller owns the boundary — run
// the call inside exec.Do, or defer Governor.Recover. A nil governor
// runs ungoverned: no guards, no overhead, panics propagate. batchSize
// is the batch row capacity; 0 means rel.BatchCap.
func EvalVectorized(g *exec.Governor, e Expr, d rel.ReadStore, batchSize int) (*rel.Relation, *Trace) {
	if err := Validate(e); err != nil {
		panic("ra: invalid expression: " + err.Error())
	}
	meter := &Meter{gov: g}
	b := newVecBuilder(d, meter, batchSize)
	out := rel.NewRelationSized(e.Arity(), sinkHint(d, e))
	var root *CountNode
	if u, ok := e.(*Union); ok {
		// A root union's sink would be the result itself: drain both
		// inputs straight into the output relation instead, so the
		// result is built once and — per the MaxResident contract —
		// not counted as resident.
		lc, ln := b.batches(u.L)
		rc, rn := b.batches(u.E)
		root = &CountNode{Expr: e, Kids: []*CountNode{ln, rn}}
		DrainBatches(meter.GuardBatches(lc), out)
		DrainBatches(meter.GuardBatches(rc), out)
		root.N = out.Len()
	} else {
		var cur BatchCursor
		cur, root = b.batches(e)
		DrainBatches(meter.GuardBatches(cur), out)
	}
	return out, root.Trace(meter)
}

// Meter tracks the number of tuples currently held in operator state
// across a whole streaming plan, and the peak. The final result
// relation is not counted: every evaluator must hold its output, so
// the maximum measures only the executor's auxiliary state. A single
// Meter may be shared across algebras (the xra evaluator threads its
// meter through wrapped RA subplans via OpenBatchStream), so the peak
// is the true concurrent footprint of the mixed plan.
type Meter struct {
	cur, max int
	gov      *exec.Governor
}

// NewGovernedMeter builds a meter bound to a query governor. Guard
// cursors obtained from GuardBatches enforce the governor's
// cancellation and budgets against this meter's live count; a plain
// &Meter{} is ungoverned and the guards are free passthroughs.
func NewGovernedMeter(g *exec.Governor) *Meter { return &Meter{gov: g} }

// Grow records n more tuples entering operator state.
func (m *Meter) Grow(n int) {
	m.cur += n
	if m.cur > m.max {
		m.max = m.cur
	}
}

// Release records n tuples leaving operator state.
func (m *Meter) Release(n int) { m.cur -= n }

// Max returns the peak number of concurrently held tuples so far.
func (m *Meter) Max() int { return m.max }

// Watch registers c's held-batch cleanup with the meter's governor
// when both exist (see rel.BatchHolder); a no-op otherwise.
func (m *Meter) Watch(c any) {
	if m != nil && m.gov != nil {
		m.gov.Watch(c)
	}
}

// GuardBatches wraps a batch cursor with the governor check point:
// at every batch boundary it observes cancellation and enforces the
// resident-tuple and batch-pool budgets — the "≤ one branch per batch"
// the cancellation-latency contract promises. With no governor the
// cursor is returned unchanged, so ungoverned plans pay nothing. The
// check happens before the pull, when the guard's frame holds no
// pooled batch — the only place an abort is allowed to unwind from.
func (m *Meter) GuardBatches(in rel.BatchCursor) rel.BatchCursor {
	if m == nil || m.gov == nil {
		return in
	}
	m.gov.Watch(in)
	return &guardBatchCursor{in: in, g: m.gov, m: m}
}

type guardBatchCursor struct {
	in rel.BatchCursor
	g  *exec.Governor
	m  *Meter
}

func (c *guardBatchCursor) NextBatch() (*rel.Batch, bool) {
	c.g.Check()
	c.g.CheckResident(c.m.cur)
	return c.in.NextBatch()
}

// CountNode mirrors one occurrence of a node in a streaming plan and
// collects its emission count. A subexpression shared between two
// places in the tree gets two nodes, exactly as the materialized
// evaluators evaluate (and record) it twice. Every streaming executor
// — ra's, sa's, xra's and the planner's — builds its trace from this
// tree.
type CountNode struct {
	Expr fmt.Stringer
	N    int
	Kids []*CountNode
}

// Count wraps an operator's cursor so the rows it emits are counted
// into c.
func (c *CountNode) Count(in BatchCursor) BatchCursor {
	return &countBatchCursor{in: in, node: c}
}

// Trace records the subtree's steps in post-order (children before
// parents), matching the materialized evaluators' step order, with
// the meter's resident peak. Call it once the plan is drained.
func (c *CountNode) Trace(m *Meter) *Trace {
	tr := &Trace{MaxResident: m.Max()}
	c.record(tr)
	return tr
}

func (c *CountNode) record(tr *Trace) {
	for _, k := range c.Kids {
		k.record(tr)
	}
	tr.Record(c.Expr, c.N)
}

// countBatchCursor counts rows flowing out of an operator into the
// plan's CountNode.
type countBatchCursor struct {
	in   BatchCursor
	node *CountNode
}

func (c *countBatchCursor) NextBatch() (*rel.Batch, bool) {
	b, ok := c.in.NextBatch()
	if ok {
		c.node.N += b.Len()
	}
	return b, ok
}
