package sa

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

// checkVectorized runs the streaming executor at every sweep batch
// size and asserts the pinned tuple contract (internal/tuplecontract):
// the same result digest in emission order, per-step flow counts,
// MaxIntermediate, TotalTuples and MaxResident as the recorded entry
// under name. The result must also equal the materialized Eval, and no
// batch may leak from the pool.
func checkVectorized(t *testing.T, name string, e Expr, d rel.ReadStore) {
	t.Helper()
	want := tuplecontract.Entry(t, "sa/"+name)
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

// saVectorCorpus covers every SA operator on top of the shared batch
// substrate, with the semijoin/antijoin strategies each exercised:
// pure-equality (key-set build), equality+residual (full-row build),
// and theta-only against both a stored relation (in-place replay) and
// a computed right side (materialized).
func saVectorCorpus() []struct {
	name string
	e    Expr
} {
	r2 := R("R", 2)
	s2 := R("S", 2)
	idS := NewProject([]int{1, 2}, s2) // same as S, but not a stored relation
	return []struct {
		name string
		e    Expr
	}{
		{"stored", r2},
		{"union-root", NewUnion(r2, s2)},
		{"union-nested", NewProject([]int{1}, NewUnion(r2, s2))},
		{"diff-stored-subtrahend", NewDiff(r2, s2)},
		{"diff-streamed-subtrahend", NewDiff(r2, idS)},
		{"select", NewSelect(1, ra.OpLt, 2, r2)},
		{"select-const", NewSelectConst(2, rel.Int(1), r2)},
		{"const-tag", NewConstTag(rel.Int(7), r2)},
		{"project-swap-dup", NewProject([]int{2, 1, 1}, r2)},
		{"semijoin", NewSemijoin(r2, ra.Eq(2, 1), s2)},
		{"antijoin", NewAntijoin(r2, ra.Eq(2, 2), s2)},
		{"semijoin-2keys", NewSemijoin(r2, ra.EqAll([2]int{1, 1}, [2]int{2, 2}), s2)},
		{"semijoin-residual", NewSemijoin(r2, ra.Eq(1, 1).And(ra.A(2, ra.OpLt, 2)), s2)},
		{"antijoin-residual", NewAntijoin(r2, ra.Eq(1, 1).And(ra.A(2, ra.OpLt, 2)), s2)},
		{"semijoin-theta-stored", NewSemijoin(r2, ra.Lt(1, 2), s2)},
		{"antijoin-theta-stored", NewAntijoin(r2, ra.Lt(1, 2), s2)},
		{"semijoin-theta-streamed", NewSemijoin(r2, ra.Lt(1, 2), idS)},
		{"project-antijoin", NewProject([]int{2}, NewAntijoin(r2, ra.Eq(1, 1), s2))},
		{"union-semijoin", NewUnion(NewSemijoin(r2, ra.Eq(2, 1), s2), s2)},
		{"semijoin-of-semijoin", NewSemijoin(NewSemijoin(r2, ra.Eq(2, 1), s2), ra.Eq(1, 2), s2)},
		{"lousy-bar", LousyBarExpr()},
	}
}

// TestVectorizedSACorpus is the contract suite for the semijoin
// algebra: every corpus plan on randomized databases must reproduce
// the pinned tuple contract at batch sizes 1, 64 and 1024 — flows,
// resident peaks and result order included.
func TestVectorizedSACorpus(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		d := setJoinDatabase(seed)
		for _, c := range saVectorCorpus() {
			if c.name == "lousy-bar" {
				continue // needs the bar schema, covered below
			}
			checkVectorized(t, fmt.Sprintf("%s seed %d", c.name, seed), c.e, d)
		}
	}
	checkVectorized(t, "lousy-bar", LousyBarExpr(), workload.BeerDatabase(1, 200, 16))
}

// TestVectorizedSADivisionFamily sweeps randomized division workloads
// through the SA antijoin-division shape — the ST2/ST6 plan.
func TestVectorizedSADivisionFamily(t *testing.T) {
	e := NewProject([]int{1}, NewAntijoin(R("R", 2), ra.Eq(2, 1), R("S", 1)))
	for seed := int64(0); seed < 10; seed++ {
		checkVectorized(t, fmt.Sprintf("division seed %d", seed), e, workload.RandomDivision(seed).Database())
	}
}

// TestVectorizedSAOnShardedStores runs the SA streaming executor over
// hash-partitioned stores at shard counts 1, 2 and 4: the emission
// must match the pinned contract for the same store at every batch
// size. (Traces are pinned on the in-memory store by the suites above;
// a sharded theta replay materializes its stored side, so only
// emission is pinned here.)
func TestVectorizedSAOnShardedStores(t *testing.T) {
	exprs := []struct {
		name string
		e    Expr
	}{
		{"division", NewProject([]int{1}, NewAntijoin(R("R", 2), ra.Eq(2, 1), R("S", 1)))},
		{"semijoin-theta", NewSemijoin(R("R", 2), ra.Lt(1, 1), R("S", 1))},
	}
	for seed := int64(0); seed < 6; seed++ {
		d := workload.RandomDivision(seed).Database()
		for _, shards := range []int{1, 2, 4} {
			sdb := shard.FromStore(d, shards)
			for _, c := range exprs {
				key := fmt.Sprintf("sharded %s seed %d shards=%d", c.name, seed, shards)
				want := tuplecontract.Entry(t, "sa/"+key)
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

// TestSemijoinBatchCursorContract pins NewSemijoinBatchCursor's
// argument panics.
func TestSemijoinBatchCursorContract(t *testing.T) {
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
	d := rel.NewDatabase(rel.NewSchema(map[string]int{"R": 2}))
	sc := func() ra.BatchCursor { return ra.ScanBatches(d.Rel("R"), 0) }
	mustPanic("no-cond", "sa: semijoin cursor requires at least one condition atom", func() {
		NewSemijoinBatchCursor(sc(), sc(), nil, nil, true, &ra.Meter{}, 0)
	})
	mustPanic("both-sides", "sa: semijoin cursor requires exactly one of build cursor and stored relation", func() {
		NewSemijoinBatchCursor(sc(), sc(), d.Rel("R"), ra.Eq(1, 1), true, &ra.Meter{}, 0)
	})
	mustPanic("eq-needs-build", "sa: semijoin cursor with equality atoms requires a build cursor", func() {
		NewSemijoinBatchCursor(sc(), nil, d.Rel("R"), ra.Eq(1, 1), true, &ra.Meter{}, 0)
	})
}
