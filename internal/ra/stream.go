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
// The building blocks — Meter, OpenBatchStream, the batch operator
// constructors — are exported so the sibling algebras (internal/sa,
// internal/xra) and the planner run their own plans on the same
// substrate and share one resident meter across a mixed plan.

import (
	"context"
	"fmt"

	"radiv/internal/exec"
	"radiv/internal/rel"
)

// StreamOptions tunes the streaming executor.
type StreamOptions struct {
	// Dedup selects the projection dedup filter policy. The zero
	// value, DedupAuto, is the cost-based default: per projection, the
	// filter is inserted exactly when the estimated duplicate fan-in ×
	// consuming-join bucket size exceeds the resident cost (see
	// cost.go). DedupOff never inserts it; DedupOn forces it after
	// every projection.
	Dedup DedupMode
	// BatchSize overrides the row capacity of the executor's batches;
	// 0 means rel.BatchCap.
	BatchSize int
	// Limits bounds the query's resource use (resident tuples, pooled
	// batches). Enforced only by the governed entry points.
	Limits exec.Limits
}

// EvalVectorized evaluates the expression with the streaming executor
// and returns the result relation, always a fresh relation owned by
// the caller. Like every evaluator entry point, it accepts any
// rel.ReadStore backend; base relations are scanned in insertion
// order, so the result sequence is identical across backends holding
// the same data.
func EvalVectorized(e Expr, d rel.ReadStore) *rel.Relation {
	res, _ := EvalVectorizedTraced(e, d)
	return res
}

// EvalVectorizedTraced evaluates the expression with the streaming
// executor and also returns the trace. Step sizes count the tuples
// emitted by each operator — for dedup-deferred projections this can
// exceed the node's set cardinality, and for stored relations consumed
// in place (the subtrahend of a difference, the replayed side of a
// cartesian join) it is zero, because no tuples flow through the
// operator graph for them. MaxResident is filled in (see Trace). The
// expression is validated first, as in EvalTraced.
func EvalVectorizedTraced(e Expr, d rel.ReadStore) (*rel.Relation, *Trace) {
	return EvalVectorizedGoverned(nil, e, d, StreamOptions{})
}

// EvalVectorizedContext is the governed entry point: it honors ctx
// cancellation and deadlines at every batch boundary, enforces
// opts.Limits, converts internal panics into typed errors, and
// guarantees that on error every pooled batch the evaluation acquired
// has been released. On error the relation and trace are nil.
func EvalVectorizedContext(ctx context.Context, e Expr, d rel.ReadStore, opts StreamOptions) (*rel.Relation, *Trace, error) {
	if verr := Validate(e); verr != nil {
		return nil, nil, fmt.Errorf("ra: invalid expression: %w", verr)
	}
	res, tr, err := func() (res *rel.Relation, tr *Trace, err error) {
		g := exec.NewGovernor(ctx, opts.Limits)
		defer g.Recover(&err)
		res, tr = EvalVectorizedGoverned(g, e, d, opts)
		return res, tr, nil
	}()
	if err != nil {
		return nil, nil, err
	}
	return res, tr, nil
}

// EvalVectorizedGoverned runs the streaming executor under a
// caller-supplied governor — the hook the plan layer uses to share one
// governor across engines. The caller owns the boundary: it must
// recover with Governor.Recover. A nil governor runs ungoverned: no
// guards, no overhead, panics propagate.
func EvalVectorizedGoverned(g *exec.Governor, e Expr, d rel.ReadStore, opts StreamOptions) (*rel.Relation, *Trace) {
	if err := Validate(e); err != nil {
		panic("ra: invalid expression: " + err.Error())
	}
	meter := &Meter{gov: g}
	b := &vecBuilder{d: d, meter: meter, opts: opts}
	out := rel.NewRelationSized(e.Arity(), sinkHint(d, e))
	var root *countNode
	if u, ok := e.(*Union); ok {
		// A root union's sink would be the result itself: drain both
		// inputs straight into the output relation instead, so the
		// result is built once and — per the MaxResident contract —
		// not counted as resident.
		lc, ln := b.batches(u.L)
		rc, rn := b.batches(u.E)
		root = &countNode{e: e, kids: []*countNode{ln, rn}}
		DrainBatches(meter.GuardBatches(lc), out)
		DrainBatches(meter.GuardBatches(rc), out)
		root.n = out.Len()
	} else {
		var cur BatchCursor
		cur, root = b.batches(e)
		DrainBatches(meter.GuardBatches(cur), out)
	}
	tr := &Trace{}
	root.record(tr)
	tr.MaxResident = meter.Max()
	return out, tr
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

// countNode mirrors one occurrence of an expression node in the plan.
// A subexpression shared between two places in the tree gets two
// countNodes, exactly as the materialized evaluator evaluates (and
// records) it twice.
type countNode struct {
	e    Expr
	n    int
	kids []*countNode
}

// each visits the subtree in post-order.
func (c *countNode) each(f func(Expr, int)) {
	for _, k := range c.kids {
		k.each(f)
	}
	f(c.e, c.n)
}

// record appends the subtree's steps to the trace in post-order,
// matching the materialized evaluator's step order.
func (c *countNode) record(tr *Trace) {
	c.each(func(e Expr, n int) { tr.record(e, n) })
}
