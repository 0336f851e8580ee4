package plan

import (
	"context"
	"fmt"

	"radiv/internal/division"
	"radiv/internal/exec"
	"radiv/internal/ra"
	"radiv/internal/rel"
	"radiv/internal/sa"
	"radiv/internal/shard"
	"radiv/internal/xra"
)

// Options tunes compilation and execution.
type Options struct {
	// Optimize runs the rewrite rule pipeline. Off, the plan executes
	// the expression as written (through the same engine dispatch and
	// canonical emission, so optimized and unoptimized runs are
	// byte-comparable).
	Optimize bool
	// Vectorize is ignored: every plan runs on the one streaming
	// executor, whose batches are BatchSize rows.
	//
	// Deprecated: the field has no effect and will be removed.
	Vectorize bool
	// BatchSize is the executor's batch capacity (0 = rel.BatchCap).
	BatchSize int
	// Workers is the worker count for the sharded division fast path
	// (0 = sequential).
	Workers int
	// Limits bounds the query's resource use on the governed entry
	// points (ExecuteContext, ExecuteTracedContext). Zero values mean
	// unlimited; the legacy Execute/ExecuteTraced entries ignore it.
	Limits exec.Limits
}

// Engine names which algebra's streaming executor runs the plan.
type Engine string

const (
	// EngineRA is the pure-RA streaming executor.
	EngineRA Engine = "ra"
	// EngineSA is the semijoin-algebra streaming executor.
	EngineSA Engine = "sa"
	// EngineXRA is the extended-algebra streaming executor.
	EngineXRA Engine = "xra"
	// EngineMixed is the planner's native batch executor, for plans
	// mixing operators no single algebra holds.
	EngineMixed Engine = "mixed"
)

// Plan is a compiled, store-bound query plan. Compilation binds the
// store because the rewrite guards price the actual database (and the
// division rule's exactness guard inspects it); execute a fresh
// compile after the store changes.
type Plan struct {
	d       rel.ReadStore
	opts    Options
	source  ra.Expr
	root    *Node
	firings []Firing
	engine  Engine

	raExpr  ra.Expr
	saExpr  sa.Expr
	xraExpr xra.Expr

	// divR/divS name the division operands when the optimized plan is
	// exactly the γ-division of two stored relations — the shape the
	// sharded division fast path accelerates.
	divR, divS string
}

// Trace is the evaluators' one trace type: each executed operator's
// emission count in post-order, MaxIntermediate — the paper's
// intermediate-result measure, which ST5 watches drop from quadratic
// to linear under the rewrite — TotalTuples and MaxResident.
type Trace = ra.Trace

// Compile validates the expression, optionally rewrites it, and binds
// it to the store and an engine. The returned plan is immutable and
// reusable (each Execute streams afresh), but bound to d's statistics.
func Compile(e ra.Expr, d rel.ReadStore, opts Options) (*Plan, error) {
	if err := ra.Validate(e); err != nil {
		return nil, fmt.Errorf("plan: invalid expression: %w", err)
	}
	p := &Plan{d: d, opts: opts, source: e, root: FromRA(e)}
	if opts.Optimize {
		p.root, p.firings = optimize(d, p.root)
	}
	if ex, ok := ToRA(p.root); ok {
		p.engine, p.raExpr = EngineRA, ex
	} else if ex, ok := ToSA(p.root); ok {
		p.engine, p.saExpr = EngineSA, ex
	} else if ex, ok := ToXRA(p.root); ok {
		p.engine, p.xraExpr = EngineXRA, ex
	} else {
		p.engine = EngineMixed
	}
	if r, s, ok := matchGammaDivision(p.root); ok {
		p.divR, p.divS = r, s
	}
	return p, nil
}

// Engine returns the executor the plan is bound to.
func (p *Plan) Engine() Engine { return p.engine }

// Firings returns the recorded rule applications.
func (p *Plan) Firings() []Firing { return append([]Firing(nil), p.firings...) }

// Root returns the (rewritten) plan tree.
func (p *Plan) Root() *Node { return p.root }

// Execute runs the plan and returns a fresh result relation, owned by
// the caller, built in canonical sorted tuple order — rewrites may
// legitimately permute an executor's natural emission order, so the
// plan layer fixes the order once for optimized and unoptimized runs
// alike. When the bound store is a shard.Source and the optimized plan
// is exactly a γ-division, the shard-local division path runs instead
// of the generic executor (same result, shard-parallel).
func (p *Plan) Execute() *rel.Relation {
	if p.divR != "" {
		if src, ok := p.d.(shard.Source); ok {
			workers := p.opts.Workers
			if workers < 1 {
				workers = 1
			}
			res, _ := shard.Divide(src, p.divR, p.divS, division.Containment, workers)
			return canonical(res)
		}
	}
	res, _ := p.run(nil)
	return canonical(res)
}

// ExecuteContext is the governed Execute: one governor spans the
// whole plan — whichever engine it is bound to, the sharded division
// fast path included — honoring ctx cancellation and deadlines at
// every pull boundary, enforcing Options.Limits, converting internal
// panics into typed errors, and releasing every pooled batch on every
// abort path. On error the relation is nil.
func (p *Plan) ExecuteContext(ctx context.Context) (*rel.Relation, error) {
	if p.divR != "" {
		if src, ok := p.d.(shard.Source); ok {
			workers := p.opts.Workers
			if workers < 1 {
				workers = 1
			}
			var res *rel.Relation
			if err := exec.Do(ctx, p.opts.Limits, func(g *exec.Governor) {
				r, _ := shard.DivideGov(g, src, p.divR, p.divS, division.Containment, workers)
				res = canonical(r)
			}); err != nil {
				return nil, err
			}
			return res, nil
		}
	}
	res, _, err := p.ExecuteTracedContext(ctx)
	return res, err
}

// ExecuteTraced runs the plan through its streaming engine (never the
// sharded fast path, whose per-shard work has no single-plan trace)
// and returns the canonical result plus the trace.
func (p *Plan) ExecuteTraced() (*rel.Relation, *Trace) {
	res, tr := p.run(nil)
	return canonical(res), tr
}

// ExecuteTracedContext is the governed ExecuteTraced: like
// ExecuteContext it runs under one governor, but always through the
// plan's streaming engine so the trace exists. On error the relation
// and trace are nil.
func (p *Plan) ExecuteTracedContext(ctx context.Context) (*rel.Relation, *Trace, error) {
	var res *rel.Relation
	var tr *Trace
	if err := exec.Do(ctx, p.opts.Limits, func(g *exec.Governor) {
		res, tr = p.run(g)
		res = canonical(res)
	}); err != nil {
		return nil, nil, err
	}
	return res, tr, nil
}

// run dispatches to the bound engine, threading the governor (nil =
// ungoverned) into its executor.
func (p *Plan) run(g *exec.Governor) (*rel.Relation, *Trace) {
	switch p.engine {
	case EngineRA:
		return ra.EvalVectorized(g, p.raExpr, p.d, p.opts.BatchSize)
	case EngineSA:
		return sa.EvalVectorized(g, p.saExpr, p.d, p.opts.BatchSize)
	case EngineXRA:
		return xra.EvalVectorized(g, p.xraExpr, p.d, p.opts.BatchSize)
	}
	return p.runMixed(g)
}

// canonical rebuilds a result in sorted tuple order. The copy is
// cheap relative to evaluation and buys order-stability across
// engines, rewrites, shard counts and batch sizes.
func canonical(r *rel.Relation) *rel.Relation {
	out := rel.NewRelationSized(r.Arity(), r.Len())
	for _, t := range r.Sorted() {
		out.Add(t)
	}
	return out
}

// matchGammaDivision recognizes the exact IR of
// xra.ContainmentDivision over two stored relations.
func matchGammaDivision(n *Node) (rName, sName string, ok bool) {
	if n.Kind != KProject || n.Kids[0].Kind != KJoin {
		return "", "", false
	}
	pg := n.Kids[0].Kids[0]
	if pg.Kind != KGamma || pg.Kids[0].Kind != KJoin {
		return "", "", false
	}
	rn, sn := pg.Kids[0].Kids[0], pg.Kids[0].Kids[1]
	if rn.Kind != KRel || sn.Kind != KRel {
		return "", "", false
	}
	if !Equal(n, gammaDivision(rn.Name, sn.Name)) {
		return "", "", false
	}
	return rn.Name, sn.Name, true
}

// --- the native mixed executor ---

// runMixed executes a plan no single algebra expresses, directly on
// the shared batch substrate: RA operators use ra's exported batch
// cursors, semijoins/antijoins use sa.NewSemijoinBatchCursor, γ uses
// xra.NewGammaBatchCursor — all metered into one resident count.
func (p *Plan) runMixed(g *exec.Governor) (*rel.Relation, *Trace) {
	m := ra.NewGovernedMeter(g)
	capacity := p.opts.BatchSize
	if capacity <= 0 {
		capacity = rel.BatchCap
	}
	b := &mixedBuilder{d: p.d, meter: m, capacity: capacity}
	cur, root := b.batches(p.root)
	out := rel.NewRelation(p.root.arity)
	ra.DrainBatches(m.GuardBatches(cur), out)
	return out, root.Trace(m)
}

// mayEmitDuplicates mirrors xra's duplicate analysis over IR nodes:
// only dedup-deferring projections create duplicates, blocking sinks
// (union, γ) and stored relations are duplicate-free, filters and
// semijoins pass their left input's property through, and joins pair
// distinct inputs into distinct outputs.
func mayEmitDuplicates(n *Node) bool {
	switch n.Kind {
	case KRel, KUnion, KGamma:
		return false
	case KDiff, KSemijoin, KAntijoin:
		return mayEmitDuplicates(n.Kids[0])
	case KProject:
		return true
	case KSelect, KSelectConst, KConstTag:
		return mayEmitDuplicates(n.Kids[0])
	case KJoin:
		return mayEmitDuplicates(n.Kids[0]) || mayEmitDuplicates(n.Kids[1])
	}
	return true
}

type mixedBuilder struct {
	d        rel.ReadStore
	meter    *ra.Meter
	capacity int
}

func (b *mixedBuilder) baseRel(n *Node) rel.StoredRel {
	return rel.CheckView(b.d, n.Name, n.arity, "plan")
}

func (b *mixedBuilder) batches(n *Node) (ra.BatchCursor, *ra.CountNode) {
	node := &ra.CountNode{Expr: n}
	var cur ra.BatchCursor
	switch n.Kind {
	case KRel:
		cur = b.meter.GuardBatches(ra.ScanBatches(b.baseRel(n), b.capacity))
	case KUnion:
		l, ln := b.batches(n.Kids[0])
		r, rn := b.batches(n.Kids[1])
		node.Kids = []*ra.CountNode{ln, rn}
		cur = ra.NewUnionSinkBatchCursor(l, r, n.arity, b.meter, b.capacity)
	case KDiff:
		l, ln := b.batches(n.Kids[0])
		node.Kids = []*ra.CountNode{ln}
		if sub := n.Kids[1]; sub.Kind == KRel {
			cur = ra.NewDiffBatchCursor(l, nil, b.baseRel(sub), n.arity, b.meter)
			node.Kids = append(node.Kids, &ra.CountNode{Expr: sub})
		} else {
			rc, rn := b.batches(sub)
			cur = ra.NewDiffBatchCursor(l, rc, nil, n.arity, b.meter)
			node.Kids = append(node.Kids, rn)
		}
	case KProject:
		in, kn := b.batches(n.Kids[0])
		node.Kids = []*ra.CountNode{kn}
		cur = ra.NewProjectBatchCursor(in, n.Cols)
	case KSelect:
		in, kn := b.batches(n.Kids[0])
		node.Kids = []*ra.CountNode{kn}
		cur = ra.NewSelectBatchCursor(in, n.I, n.Op, n.J)
	case KSelectConst:
		in, kn := b.batches(n.Kids[0])
		node.Kids = []*ra.CountNode{kn}
		cur = ra.NewSelectConstBatchCursor(in, n.I, n.C)
	case KConstTag:
		in, kn := b.batches(n.Kids[0])
		node.Kids = []*ra.CountNode{kn}
		cur = ra.NewConstTagBatchCursor(in, n.C)
	case KJoin:
		l, ln := b.batches(n.Kids[0])
		node.Kids = []*ra.CountNode{ln}
		if len(n.Cond.EqPairs()) > 0 {
			rc, rn := b.batches(n.Kids[1])
			node.Kids = append(node.Kids, rn)
			cur = ra.NewHashJoinBatchCursor(l, rc, n.Cond, b.meter, b.capacity)
		} else if sub := n.Kids[1]; sub.Kind == KRel {
			node.Kids = append(node.Kids, &ra.CountNode{Expr: sub})
			cur = ra.NewLoopJoinBatchCursor(l, nil, b.baseRel(sub), n.Cond, b.meter, b.capacity)
		} else {
			rc, rn := b.batches(sub)
			node.Kids = append(node.Kids, rn)
			cur = ra.NewLoopJoinBatchCursor(l, rc, nil, n.Cond, b.meter, b.capacity)
		}
	case KSemijoin, KAntijoin:
		keep := n.Kind == KSemijoin
		l, ln := b.batches(n.Kids[0])
		node.Kids = []*ra.CountNode{ln}
		if sub := n.Kids[1]; len(n.Cond.EqPairs()) == 0 && sub.Kind == KRel {
			node.Kids = append(node.Kids, &ra.CountNode{Expr: sub})
			cur = sa.NewSemijoinBatchCursor(l, nil, b.baseRel(sub), n.Cond, keep, b.meter, b.capacity)
		} else {
			rc, rn := b.batches(sub)
			node.Kids = append(node.Kids, rn)
			cur = sa.NewSemijoinBatchCursor(l, rc, nil, n.Cond, keep, b.meter, b.capacity)
		}
	case KGamma:
		in, kn := b.batches(n.Kids[0])
		node.Kids = []*ra.CountNode{kn}
		cur = xra.NewGammaBatchCursor(in, n.Cols, n.CountCol, n.Kids[0].arity, mayEmitDuplicates(n.Kids[0]), b.meter, b.capacity)
	default:
		panic(fmt.Sprintf("plan: unknown kind %d", n.Kind))
	}
	return node.Count(cur), node
}
