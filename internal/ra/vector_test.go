package ra_test

import (
	"fmt"
	"testing"

	"radiv/internal/ra"
	"radiv/internal/rel"
	"radiv/internal/shard"
	"radiv/internal/tuplecontract"
	"radiv/internal/workload"
)

// vecBatchSizes is the batch-size sweep of the contract suite:
// degenerate single-row batches, a batch that forces mid-operator
// boundaries, and the default capacity.
var vecBatchSizes = []int{1, 64, 1024}

// checkVectorized runs the streaming executor at every sweep batch
// size and asserts the pinned tuple contract (internal/tuplecontract):
// the same result digest in emission order, per-step flow counts,
// MaxIntermediate, TotalTuples and MaxResident as the recorded entry
// under name. The result must also equal the materialized Eval, and no
// batch may leak from the pool.
func checkVectorized(t *testing.T, name string, e ra.Expr, d rel.ReadStore) {
	t.Helper()
	want := tuplecontract.Entry(t, "ra/"+name)
	mat := ra.Eval(e, d)
	for _, size := range vecBatchSizes {
		liveBefore, _, _ := rel.BatchPoolStats()
		got, gt := ra.EvalVectorized(nil, e, d, size)
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

// vectorCorpus is the operator corpus of the streaming suite, reused
// verbatim: every operator the vectorized executor implements, in both
// sugared and desugared form.
func vectorCorpus() []struct {
	name string
	e    ra.Expr
} {
	r2 := ra.R("R", 2)
	s2 := ra.R("S", 2)
	idS := ra.NewProject([]int{1, 2}, s2) // same as S, but not a stored relation
	tag3 := func(e ra.Expr) ra.Expr { return ra.NewConstTag(rel.Int(7), e) }
	return []struct {
		name string
		e    ra.Expr
	}{
		{"union", ra.NewUnion(r2, s2)},
		{"union-root-of-diff", ra.NewUnion(ra.NewDiff(r2, s2), ra.NewDiff(s2, r2))},
		{"union-nested", ra.NewProject([]int{1}, ra.NewUnion(r2, s2))},
		{"diff-stored-subtrahend", ra.NewDiff(r2, s2)},
		{"diff-streamed-subtrahend", ra.NewDiff(r2, idS)},
		{"select-lt", ra.NewSelect(1, ra.OpLt, 2, r2)},
		{"select-ne", ra.NewSelect(1, ra.OpNe, 2, r2)},
		{"select-eq", ra.NewSelect(1, ra.OpEq, 2, r2)},
		{"select-const", ra.NewSelectConst(2, rel.Int(1), r2)},
		{"select-const-absent", ra.NewSelectConst(2, rel.Str("no-such-value"), r2)},
		{"const-tag", tag3(r2)},
		{"project-swap-dup", ra.NewProject([]int{2, 1, 1}, r2)},
		{"equi-join-1", ra.NewJoin(r2, ra.Eq(2, 1), s2)},
		{"equi-join-2", ra.NewJoin(r2, ra.EqAll([2]int{1, 1}, [2]int{2, 2}), s2)},
		{"equi-join-3", ra.NewJoin(tag3(r2), ra.EqAll([2]int{1, 1}, [2]int{2, 2}, [2]int{3, 3}), tag3(s2))},
		{"equi-join-residual", ra.NewJoin(r2, ra.Eq(1, 1).And(ra.A(2, ra.OpLt, 2)), s2)},
		{"theta-join-stored", ra.NewJoin(r2, ra.Lt(2, 1), s2)},
		{"theta-join-streamed", ra.NewJoin(r2, ra.Lt(2, 1), idS)},
		{"product", ra.Product(r2, s2)},
		{"product-streamed-right", ra.Product(r2, idS)},
		{"semijoin-shape", ra.EquiSemijoinExpr(r2, ra.Eq(2, 1), ra.NewProject([]int{1}, s2))},
	}
}

// TestVectorizedOperatorCorpus is the contract suite of the streaming
// executor: every corpus plan, on randomized databases, must reproduce
// the pinned tuple contract at batch sizes 1, 64 and 1024 — flows,
// resident peaks and result order included.
func TestVectorizedOperatorCorpus(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		d := setJoinDatabase(seed)
		for _, c := range vectorCorpus() {
			checkVectorized(t, fmt.Sprintf("%s seed %d", c.name, seed), c.e, d)
			checkVectorized(t, fmt.Sprintf("desugared %s seed %d", c.name, seed), ra.Desugar(c.e), d)
		}
	}
}

// TestVectorizedDivisionEquivalence sweeps randomized division
// workloads through the classical division expressions — the plans the
// ST4/BENCH_5 acceptance measures — at every sweep batch size.
func TestVectorizedDivisionEquivalence(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		d := workload.RandomDivision(seed).Database()
		checkVectorized(t, fmt.Sprintf("division seed %d", seed), ra.DivisionExpr("R", "S"), d)
		checkVectorized(t, fmt.Sprintf("eq-division seed %d", seed), ra.EqualityDivisionExpr("R", "S"), d)
	}
}

// TestVectorizedSetJoinEquivalence covers the set-join expression
// shapes, whose plans stack several blocking sinks.
func TestVectorizedSetJoinEquivalence(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		d := setJoinDatabase(seed)
		checkVectorized(t, fmt.Sprintf("set-containment seed %d", seed), ra.SetContainmentJoinExpr("R", "S"), d)
		checkVectorized(t, fmt.Sprintf("set-equality seed %d", seed), ra.SetEqualityJoinExpr("R", "S"), d)
	}
}

// TestVectorizedOnShardedStores runs the streaming executor over
// hash-partitioned stores at shard counts 1, 2 and 4: the emission
// must match the pinned contract for the same store at every batch
// size. (Traces are pinned on the in-memory store by the suites above;
// a sharded theta-join replay materializes its stored side, so only
// emission is pinned here.)
func TestVectorizedOnShardedStores(t *testing.T) {
	exprs := []struct {
		name string
		e    ra.Expr
	}{
		{"division", ra.DivisionExpr("R", "S")},
		{"join-diff", ra.NewDiff(ra.NewProject([]int{1}, ra.NewJoin(ra.R("R", 2), ra.Eq(2, 1), ra.R("S", 1))), ra.NewProject([]int{1}, ra.R("R", 2)))},
	}
	for seed := int64(0); seed < 6; seed++ {
		d := workload.RandomDivision(seed).Database()
		for _, shards := range []int{1, 2, 4} {
			sdb := shard.FromStore(d, shards)
			for _, c := range exprs {
				key := fmt.Sprintf("sharded %s seed %d shards=%d", c.name, seed, shards)
				want := tuplecontract.Entry(t, "ra/"+key)
				for _, size := range vecBatchSizes {
					res, _ := ra.EvalVectorized(nil, c.e, sdb, size)
					if got := tuplecontract.Result(res); got != want {
						t.Errorf("%s size=%d: emission %s, want %s", key, size, got, want)
					}
				}
			}
		}
	}
}

// TestVectorizedConstSelectGrowingDictionary is the regression test
// for the stale negative-cache bug: over a store whose scans go
// through the interning adapter (rel.Batched — also the sharded-view
// path), the adapter's dictionary grows while the stream flows, so a
// constant absent from the first batch's dictionary may appear in a
// later one. The cached "absent" verdict must be re-checked, or
// matching rows are dropped.
func TestVectorizedConstSelectGrowingDictionary(t *testing.T) {
	d := rel.NewDatabase(rel.NewSchema(map[string]int{"R": 2}))
	d.AddInts("R", 1, 1) // batch 1 at BatchSize 1: dictionary = {1}
	d.AddInts("R", 2, 2) // batch 2 interns 2 after the first check
	d.AddInts("R", 2, 3)
	e := ra.NewSelectConst(1, rel.Int(2), ra.R("R", 2))
	want := []rel.Tuple{rel.Ints(2, 2), rel.Ints(2, 3)}
	for _, size := range []int{1, 2, 1024} {
		w := rel.Batched(d, size)
		res, _ := ra.EvalVectorized(nil, e, w, size)
		got := res.Tuples()
		if len(got) != len(want) {
			t.Fatalf("size=%d: %d tuples, want %d (stale absent-constant cache?)", size, len(got), len(want))
		}
		for i := range want {
			if !want[i].Equal(got[i]) {
				t.Fatalf("size=%d: tuple %d is %v, want %v", size, i, got[i], want[i])
			}
		}
	}
}

// TestVectorizedResultOwnership pins the result-ownership contract on
// the vectorized path: mutating an evaluation result must not reach
// the database, even for a bare relation-name root.
func TestVectorizedResultOwnership(t *testing.T) {
	d := rel.NewDatabase(rel.NewSchema(map[string]int{"R": 2}))
	d.AddInts("R", 1, 2)
	res, _ := ra.EvalVectorized(nil, ra.R("R", 2), d, 0)
	res.Add(rel.Ints(9, 9))
	if d.Rel("R").Contains(rel.Ints(9, 9)) {
		t.Fatal("mutating a vectorized result mutated the database")
	}
	if d.Rel("R").Len() != 1 {
		t.Fatalf("database relation has %d tuples, want 1", d.Rel("R").Len())
	}
}

// TestVectorizedPoolSeparateFromResident pins the accounting split:
// the division trace reports the pinned operator-state resident peak,
// while the batches it moved live in the pool — visible as pool
// traffic, never as resident tuples.
func TestVectorizedPoolSeparateFromResident(t *testing.T) {
	d := workload.RandomDivision(4).Database()
	e := ra.DivisionExpr("R", "S")
	rel.ResetBatchPoolPeak()
	res, gt := ra.EvalVectorized(nil, e, d, 0)
	if got, want := tuplecontract.Trace(res, gt), tuplecontract.Entry(t, "ra/division seed 4"); got != want {
		t.Fatalf("contract mismatch\n got: %s\nwant: %s", got, want)
	}
	_, peak, _ := rel.BatchPoolStats()
	if peak < 1 {
		t.Fatalf("expected pooled batch traffic, peak %d", peak)
	}
}
