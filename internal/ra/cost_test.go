package ra_test

import (
	"testing"

	"radiv/internal/ra"
	"radiv/internal/rel"
)

// dedupDatabase builds the duplicate-heavy probe workload of
// BenchmarkStreamedDedupFilter: 50 group keys with dups tuples each in
// R, 20 join candidates per key in S, so π1(R) feeds the join dups
// duplicate probes per key.
func dedupDatabase(dups int) *rel.Database {
	d := rel.NewDatabase(rel.NewSchema(map[string]int{"R": 2, "S": 2}))
	for a := 0; a < 50; a++ {
		for j := 0; j < dups; j++ {
			d.AddInts("R", int64(a), int64(1000+j))
		}
		for j := 0; j < 20; j++ {
			d.AddInts("S", int64(a), int64(j))
		}
	}
	return d
}

// checkDedupRun runs the plan on the streaming executor and pins its
// result against the materialized reference and its resident peak —
// the observable that tells whether the dedup filter was inserted
// (the filter's hash set is operator state) — against the value a
// forced policy produced on the same plan.
func checkDedupRun(t *testing.T, name string, e ra.Expr, d *rel.Database, rows, resident int) {
	t.Helper()
	res, tr := ra.EvalVectorized(nil, e, d, 0)
	if want := ra.Eval(e, d); !res.Equal(want) {
		t.Errorf("%s: streamed result differs from ra.Eval", name)
	}
	if res.Len() != rows {
		t.Errorf("%s: %d rows, want %d", name, res.Len(), rows)
	}
	if tr.MaxResident != resident {
		t.Errorf("%s: resident %d, want %d", name, tr.MaxResident, resident)
	}
}

// TestDedupAutoPicksFilterOnDuplicateHeavyProbe pins the cost-based
// policy on the measured regime: duplicate fan-in 40 × bucket ≈ 20
// dwarfs one resident tuple per distinct key, so the executor must
// insert the filter. With the filter forced on this plan held 1050
// tuples at peak (the 1000-tuple join build plus 50 distinct keys);
// forced off it held 1000.
func TestDedupAutoPicksFilterOnDuplicateHeavyProbe(t *testing.T) {
	e := ra.NewJoin(ra.NewProject([]int{1}, ra.R("R", 2)), ra.Eq(1, 1), ra.R("S", 2))
	checkDedupRun(t, "probe", e, dedupDatabase(40), 1000, 1050)
}

// TestDedupAutoSkipsFilterWhenUseless pins the regimes where the cost
// model can prove the filter buys nothing and must stay off: a
// projection keeping all columns (provably duplicate-free), and a
// projection that feeds a sink rather than a join probe. The expected
// peaks are the filter-off values; the filter would have held 3000
// and 50 tuples respectively.
func TestDedupAutoSkipsFilterWhenUseless(t *testing.T) {
	d := dedupDatabase(40)
	// A permutation projection is duplicate-free by construction: the
	// estimator sees every column kept and reports zero fan-in.
	probe := ra.NewJoin(ra.NewProject([]int{2, 1}, ra.R("R", 2)), ra.Eq(2, 1), ra.R("S", 2))
	checkDedupRun(t, "permutation probe", probe, d, 40000, 1000)
	// The projection's consumer is the result sink, not a join probe:
	// duplicates cost one Add each either way, so the filter would only
	// add resident state.
	sink := ra.NewProject([]int{1}, ra.R("R", 2))
	checkDedupRun(t, "sink-feeding projection", sink, d, 50, 0)
}
