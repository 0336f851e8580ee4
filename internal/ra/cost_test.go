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

// residentOf runs the plan under the given options and reports the
// resident peak — the observable that tells whether the dedup filter
// was inserted (the filter's hash set is operator state).
func residentOf(t *testing.T, e ra.Expr, d *rel.Database, opts ra.StreamOptions) (*rel.Relation, int) {
	t.Helper()
	res, tr := ra.EvalVectorizedGoverned(nil, e, d, opts)
	return res, tr.MaxResident
}

// TestDedupAutoPicksFilterOnDuplicateHeavyProbe pins the cost-based
// default on the measured regime: duplicate fan-in 40 × bucket ≈ 20
// dwarfs one resident tuple per distinct key, so DedupAuto must behave
// like the forced filter — and produce the same result as every other
// mode.
func TestDedupAutoPicksFilterOnDuplicateHeavyProbe(t *testing.T) {
	d := dedupDatabase(40)
	e := ra.NewJoin(ra.NewProject([]int{1}, ra.R("R", 2)), ra.Eq(1, 1), ra.R("S", 2))
	resOff, off := residentOf(t, e, d, ra.StreamOptions{Dedup: ra.DedupOff})
	resOn, on := residentOf(t, e, d, ra.StreamOptions{Dedup: ra.DedupOn})
	resAuto, auto := residentOf(t, e, d, ra.StreamOptions{})
	if !resOff.Equal(resOn) || !resOff.Equal(resAuto) {
		t.Fatalf("dedup modes disagree on the result")
	}
	if on <= off {
		t.Fatalf("forced filter resident %d not above deferred %d: workload does not discriminate", on, off)
	}
	if auto != on {
		t.Errorf("auto resident %d, want the filter's %d (cost model should pick the filter)", auto, on)
	}
}

// TestDedupAutoSkipsFilterWhenUseless pins the regimes where the cost
// model can prove the filter buys nothing and auto must stay off: a
// projection keeping all columns (provably duplicate-free), and a
// projection that feeds a sink rather than a join probe.
func TestDedupAutoSkipsFilterWhenUseless(t *testing.T) {
	d := dedupDatabase(40)
	// A permutation projection is duplicate-free by construction: the
	// estimator sees every column kept and reports zero fan-in.
	probe := ra.NewJoin(ra.NewProject([]int{2, 1}, ra.R("R", 2)), ra.Eq(2, 1), ra.R("S", 2))
	_, off := residentOf(t, probe, d, ra.StreamOptions{Dedup: ra.DedupOff})
	_, auto := residentOf(t, probe, d, ra.StreamOptions{})
	if auto != off {
		t.Errorf("permutation probe: auto resident %d, want deferred %d", auto, off)
	}

	dups := dedupDatabase(40)
	// The projection's consumer is the result sink, not a join probe:
	// duplicates cost one Add each either way, so the filter would only
	// add resident state.
	sink := ra.NewProject([]int{1}, ra.R("R", 2))
	_, off = residentOf(t, sink, dups, ra.StreamOptions{Dedup: ra.DedupOff})
	_, auto = residentOf(t, sink, dups, ra.StreamOptions{})
	if auto != off {
		t.Errorf("sink-feeding projection: auto resident %d, want deferred %d", auto, off)
	}
}

// TestDedupExplicitOverrides pins that both explicit settings beat the
// cost model: DedupOff on the duplicate-heavy plan keeps the filter
// out even though the model would insert it, and DedupOn inserts it
// even where the model would not.
func TestDedupExplicitOverrides(t *testing.T) {
	dups := dedupDatabase(40)
	probe := ra.NewJoin(ra.NewProject([]int{1}, ra.R("R", 2)), ra.Eq(1, 1), ra.R("S", 2))
	_, off := residentOf(t, probe, dups, ra.StreamOptions{Dedup: ra.DedupOff})
	_, auto := residentOf(t, probe, dups, ra.StreamOptions{})
	if off >= auto {
		t.Errorf("DedupOff resident %d not below auto %d: override ignored", off, auto)
	}

	clean := dedupDatabase(1)
	sink := ra.NewProject([]int{1}, ra.R("R", 2))
	_, deferred := residentOf(t, sink, clean, ra.StreamOptions{Dedup: ra.DedupOff})
	_, forcedOn := residentOf(t, sink, clean, ra.StreamOptions{Dedup: ra.DedupOn})
	if forcedOn <= deferred {
		t.Errorf("forced filter resident %d not above deferred %d", forcedOn, deferred)
	}
}
