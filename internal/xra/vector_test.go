package xra

import (
	"fmt"
	"testing"

	"radiv/internal/ra"
	"radiv/internal/rel"
	"radiv/internal/shard"
	"radiv/internal/tuplecontract"
	"radiv/internal/workload"
)

// vecBatchSizes mirrors the ra contract suite's sweep: degenerate
// single-row batches, a batch that forces mid-operator boundaries, and
// the default capacity.
var vecBatchSizes = []int{1, 64, 1024}

// setJoinDatabase wraps a RandomSetJoin draw into a database over
// {R/2, S/2}.
func setJoinDatabase(seed int64) *rel.Database {
	r, s := workload.RandomSetJoin(seed).Generate()
	d := rel.NewDatabase(rel.NewSchema(map[string]int{"R": 2, "S": 2}))
	for _, tp := range r.Tuples() {
		d.Add("R", tp)
	}
	for _, tp := range s.Tuples() {
		d.Add("S", tp)
	}
	return d
}

// checkVectorized runs the streaming executor at every sweep batch
// size and asserts the pinned tuple contract (internal/tuplecontract):
// the same result digest in emission order, per-step flow counts,
// MaxIntermediate, TotalTuples and MaxResident as the recorded entry
// under name. The result must also equal the materialized Eval, and no
// batch may leak from the pool.
func checkVectorized(t *testing.T, name string, e Expr, d rel.ReadStore) {
	t.Helper()
	want := tuplecontract.Entry(t, "xra/"+name)
	mat := Eval(e, d)
	for _, size := range vecBatchSizes {
		liveBefore, _, _ := rel.BatchPoolStats()
		got, gt := EvalVectorized(nil, e, d, size)
		liveAfter, _, _ := rel.BatchPoolStats()
		if liveAfter != liveBefore {
			t.Fatalf("%s size=%d: batch leak: %d batches live before, %d after", name, size, liveBefore, liveAfter)
		}
		if line := tuplecontract.Trace(got, gt); line != want {
			t.Errorf("%s size=%d: contract mismatch\n got: %s\nwant: %s", name, size, line, want)
		}
		if !got.Equal(mat) {
			t.Errorf("%s size=%d: result differs from the materialized evaluator", name, size)
		}
	}
}

// xraVectorCorpus covers γ in all keying configurations (count(*)
// with and without required full-row dedup, count(col), grand
// aggregate), wrapped RA subplans including blocking sinks, and both
// join strategies.
func xraVectorCorpus() []struct {
	name string
	e    Expr
} {
	r2 := &Wrap{E: ra.R("R", 2)}
	s2 := &Wrap{E: ra.R("S", 2)}
	projR := &Wrap{E: ra.NewProject([]int{2, 1}, ra.R("R", 2))} // duplicate-capable input
	return []struct {
		name string
		e    Expr
	}{
		{"wrap-stored", r2},
		{"wrap-diff", &Wrap{E: ra.NewDiff(ra.R("R", 2), ra.R("S", 2))}},
		{"wrap-union", &Wrap{E: ra.NewUnion(ra.R("R", 2), ra.R("S", 2))}},
		{"gamma-star", NewGamma([]int{1}, 0, r2)},
		{"gamma-star-dedup", NewGamma([]int{1}, 0, projR)},
		{"gamma-distinct", NewGamma([]int{1}, 2, r2)},
		{"gamma-grand", NewGamma(nil, 1, r2)},
		{"gamma-multi-key", NewGamma([]int{2, 1}, 0, r2)},
		{"join-eq", NewJoin(r2, ra.Eq(2, 1), s2)},
		{"join-theta-wrapped-stored", NewJoin(r2, ra.Lt(2, 1), s2)},
		{"join-theta-computed", NewJoin(r2, ra.Lt(2, 1), NewProject([]int{1, 2}, s2))},
		{"gamma-of-join", NewGamma([]int{1}, 3, NewJoin(r2, ra.Eq(2, 1), s2))},
		{"project-of-gamma", NewProject([]int{2}, NewGamma([]int{1}, 2, r2))},
	}
}

// TestVectorizedXRACorpus is the contract suite for the extended
// algebra: every corpus plan on randomized databases must reproduce
// the pinned tuple contract at batch sizes 1, 64 and 1024 — flows,
// resident peaks and result order included.
func TestVectorizedXRACorpus(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		d := setJoinDatabase(seed)
		for _, c := range xraVectorCorpus() {
			checkVectorized(t, fmt.Sprintf("%s seed %d", c.name, seed), c.e, d)
		}
	}
}

// TestVectorizedGammaDivision sweeps randomized division workloads
// through the Section 5 γ-division expressions — the ST5/ST6 plans.
func TestVectorizedGammaDivision(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		d := workload.RandomDivision(seed).Database()
		checkVectorized(t, fmt.Sprintf("containment seed %d", seed), ContainmentDivision("R", "S"), d)
		checkVectorized(t, fmt.Sprintf("equality seed %d", seed), EqualityDivision("R", "S"), d)
	}
}

// TestVectorizedGammaEmpty pins the SQL-style zero row of the grand
// aggregate over an empty input, and the empty grouped aggregate.
func TestVectorizedGammaEmpty(t *testing.T) {
	d := rel.NewDatabase(rel.NewSchema(map[string]int{"R": 2}))
	r2 := &Wrap{E: ra.R("R", 2)}
	checkVectorized(t, "grand-empty", NewGamma(nil, 1, r2), d)
	checkVectorized(t, "grouped-empty", NewGamma([]int{1}, 0, r2), d)
}

// TestVectorizedXRAOnShardedStores runs the XRA streaming executor
// over hash-partitioned stores at shard counts 1, 2 and 4: the
// emission must match the pinned contract for the same store at every
// batch size. (Traces are pinned on the in-memory store above; a
// sharded theta replay materializes its stored side, so only emission
// is pinned here.)
func TestVectorizedXRAOnShardedStores(t *testing.T) {
	r2 := &Wrap{E: ra.R("R", 2)}
	exprs := []struct {
		name string
		e    Expr
	}{
		{"gamma-division", ContainmentDivision("R", "S")},
		{"gamma-star", NewGamma([]int{1}, 0, r2)},
	}
	for seed := int64(0); seed < 6; seed++ {
		d := workload.RandomDivision(seed).Database()
		for _, shards := range []int{1, 2, 4} {
			sdb := shard.FromStore(d, shards)
			for _, c := range exprs {
				key := fmt.Sprintf("sharded %s seed %d shards=%d", c.name, seed, shards)
				want := tuplecontract.Entry(t, "xra/"+key)
				for _, size := range vecBatchSizes {
					res, _ := EvalVectorized(nil, c.e, sdb, size)
					if got := tuplecontract.Result(res); got != want {
						t.Errorf("%s size=%d: emission %s, want %s", key, size, got, want)
					}
				}
			}
		}
	}
}

// TestGammaBatchCursorContract pins NewGammaBatchCursor's validation
// panics.
func TestGammaBatchCursorContract(t *testing.T) {
	mustPanic := func(name, want string, f func()) {
		defer func() {
			r := recover()
			if r == nil {
				t.Fatalf("%s: no panic", name)
			}
			if s, ok := r.(string); !ok || s != want {
				t.Fatalf("%s: panic %v, want %q", name, r, want)
			}
		}()
		f()
	}
	mustPanic("group-col", "xra: group column 3 out of range 1..2", func() {
		NewGammaBatchCursor(nil, []int{3}, 0, 2, false, &ra.Meter{}, 0)
	})
	mustPanic("count-col", "xra: count column 5 out of range 0..2", func() {
		NewGammaBatchCursor(nil, []int{1}, 5, 2, false, &ra.Meter{}, 0)
	})
}
