package xra

// This file holds the static duplicate analysis behind γ's count(*)
// in the extended algebra's streaming executor (vector.go).
// Projections pipeline (deduplication deferred to the consuming sink),
// joins materialize only their build side on interned-ID keys, wrapped
// pure-RA subexpressions pipeline straight through ra.OpenBatchStream
// — sharing one resident meter with the enclosing plan — and γ streams
// its input into an interned accumulator, holding one entry per group
// and distinct counted value rather than the whole input.
//
// That last point is the Section 5 punchline in memory terms: the
// γ-division expression not only keeps its *flow* linear (what
// EvalTraced shows), its executor *holds* only the per-group counters
// and one build side at a time, so Trace.MaxResident stays linear too
// (experiment ST2).

import "radiv/internal/ra"

// mayEmitDuplicates reports whether the streaming plan for e can
// deliver the same tuple more than once. Only dedup-deferring
// projections create duplicates; blocking sinks (union, difference,
// γ itself) and stored relations are duplicate-free, and the remaining
// operators pass their input's property through (joins pair distinct
// inputs into distinct outputs). γ's count(*) uses this to decide
// whether exactness requires full-tuple deduplication.
func mayEmitDuplicates(e Expr) bool {
	switch n := e.(type) {
	case *Wrap:
		return raMayEmitDuplicates(n.E)
	case *Gamma:
		return false
	case *Project:
		return true
	case *Join:
		return mayEmitDuplicates(n.L) || mayEmitDuplicates(n.E)
	}
	return true // unknown node: be conservative
}

// raMayEmitDuplicates is mayEmitDuplicates over a wrapped pure-RA
// subplan (ra.OpenBatchStream's operators).
func raMayEmitDuplicates(e ra.Expr) bool {
	switch n := e.(type) {
	case *ra.Rel, *ra.Union:
		// Stored relations are sets; union is a deduplicating sink.
		return false
	case *ra.Diff:
		// The difference cursor only materializes its subtrahend: the
		// left input streams through the membership filter undeduped.
		return raMayEmitDuplicates(n.L)
	case *ra.Project:
		return true
	case *ra.Select:
		return raMayEmitDuplicates(n.E)
	case *ra.SelectConst:
		return raMayEmitDuplicates(n.E)
	case *ra.ConstTag:
		return raMayEmitDuplicates(n.E)
	case *ra.Join:
		return raMayEmitDuplicates(n.L) || raMayEmitDuplicates(n.E)
	}
	return true
}
