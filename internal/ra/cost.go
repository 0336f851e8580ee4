package ra

// This file implements the cost model behind the pipelined projection
// dedup filter, the executor's only dedup policy. A projection feeding
// a join's probe side replays the join's candidate scan once per
// duplicate probe tuple, so the filter wins whenever the estimated
// duplicate fan-in times the per-probe bucket size outweighs its
// resident cost of one tuple per distinct projected tuple
// (BenchmarkStreamedDedupFilter measures the filtered plan).
//
// The estimate arithmetic lives in internal/plan/cost so the planner's
// rewrite rules price plans with the same primitives; this file keeps
// the RA-tree walk and the dedup decision itself.

import (
	"radiv/internal/plan/cost"
	"radiv/internal/rel"
)

// estimateSize walks the expression bottom-up. Base relations read
// their exact cardinality from the store; operators apply the standard
// selectivity guesses of internal/plan/cost. A relation name missing
// from the schema estimates as empty — the builder will panic with the
// proper message when it resolves the node.
func estimateSize(d rel.ReadStore, e Expr) cost.Estimate {
	switch n := e.(type) {
	case *Rel:
		if _, ok := d.Schema().Arity(n.Name); !ok {
			return cost.Estimate{}
		}
		return cost.Base(float64(d.View(n.Name).Len()))
	case *Union:
		return cost.Union(estimateSize(d, n.L), estimateSize(d, n.E))
	case *Diff:
		return cost.Diff(estimateSize(d, n.L))
	case *Select:
		return cost.Select(estimateSize(d, n.E))
	case *SelectConst:
		return cost.SelectConst(estimateSize(d, n.E))
	case *ConstTag:
		return cost.ConstTag(estimateSize(d, n.E))
	case *Project:
		return cost.Project(estimateSize(d, n.E), n.Cols, n.E.Arity())
	case *Join:
		return cost.Join(estimateSize(d, n.L), joinBucket(d, n))
	}
	return cost.Estimate{}
}

// joinBucket estimates how many build-side candidates one probe tuple
// of the join scans (cost.JoinBucket over the build side's estimate).
func joinBucket(d rel.ReadStore, n *Join) float64 {
	return cost.JoinBucket(estimateSize(d, n.E), len(n.Cond.EqPairs()), n.E.Arity())
}

// dedupProjection decides the filter for one projection node. bucket
// is the estimated per-probe candidate scan of the consuming join (0
// when the projection does not feed a probe input).
func dedupProjection(d rel.ReadStore, n *Project, bucket float64) bool {
	if bucket <= 1 {
		return false // nothing to save: each duplicate probe is O(1)
	}
	child := estimateSize(d, n.E)
	distinct := cost.ProjectDistinct(child, n.Cols, n.E.Arity())
	dups := child.Rows - distinct
	if dups <= 0 {
		return false
	}
	// The filter spends one resident tuple per distinct projected tuple
	// and saves one bucket scan per duplicate probe.
	return dups*bucket > distinct
}
