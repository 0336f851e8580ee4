package plan_test

import (
	"fmt"
	"testing"

	"radiv/internal/plan"
	"radiv/internal/ra"
	"radiv/internal/rel"
	"radiv/internal/shard"
	"radiv/internal/tuplecontract"
	"radiv/internal/workload"
)

// This file is the planner-equivalence suite: for every expression in
// the operator corpus and for randomized division and set-join
// workloads, the optimized plan must produce byte-identical results —
// emission order included — to the unoptimized plan, across every
// execution surface the plan layer dispatches to: the four engines at
// batch sizes 1, 64 and 1024, the traced path, and the sharded store
// at shard counts 1/2/4 with worker counts 1/2/4. The optimized trace
// must reproduce the pinned tuple contract (internal/tuplecontract), and the
// result must equal the materialized ra.Eval. Run under -race this
// doubles as the planner's parallel-safety check.

// sameEmission compares two results tuple-by-tuple in emission order.
func sameEmission(a, b *rel.Relation) error {
	if a.Arity() != b.Arity() {
		return fmt.Errorf("arity %d vs %d", a.Arity(), b.Arity())
	}
	at, bt := a.Tuples(), b.Tuples()
	if len(at) != len(bt) {
		return fmt.Errorf("%d tuples vs %d", len(at), len(bt))
	}
	for i := range at {
		if !at[i].Equal(bt[i]) {
			return fmt.Errorf("tuple %d: %s vs %s", i, at[i], bt[i])
		}
	}
	return nil
}

// checkEquivalence runs one expression over one store through every
// optimized execution surface and compares against the unoptimized
// baseline; name keys the pinned contract entry.
func checkEquivalence(t *testing.T, name string, e ra.Expr, d *rel.Database) {
	t.Helper()
	base, err := plan.Compile(e, d, plan.Options{})
	if err != nil {
		t.Fatalf("%s: baseline compile: %v", e, err)
	}
	want := base.Execute()
	if !want.Equal(ra.Eval(e, d)) {
		t.Errorf("%s: plan result differs from the materialized evaluator", e)
	}

	opt, err := plan.Compile(e, d, plan.Options{Optimize: true})
	if err != nil {
		t.Fatalf("%s: optimized compile: %v", e, err)
	}
	if err := sameEmission(want, opt.Execute()); err != nil {
		t.Errorf("%s: optimized (engine %s): %v", e, opt.Engine(), err)
	}

	// The contract arm covers every engine the dispatch knows — the RA,
	// SA and XRA executors and the mixed executor — at batch sizes
	// that include single-row batches and mid-operator batch
	// boundaries: the traced result and the trace must reproduce the
	// pinned contract entry.
	pinned := tuplecontract.Entry(t, "plan/"+name)
	for _, size := range []int{1, 64, 1024} {
		p, err := plan.Compile(e, d, plan.Options{Optimize: true, BatchSize: size})
		if err != nil {
			t.Fatalf("%s: compile at batch %d: %v", e, size, err)
		}
		traced, tr := p.ExecuteTraced()
		if err := sameEmission(want, traced); err != nil {
			t.Errorf("%s: optimized traced (engine %s) at batch %d: %v", e, p.Engine(), size, err)
		}
		if got := tuplecontract.Trace(traced, tr); got != pinned {
			t.Errorf("%s (engine %s) at batch %d: contract mismatch\n got: %s\nwant: %s", name, p.Engine(), size, got, pinned)
		}
	}

	for _, shards := range []int{1, 2, 4} {
		s := shard.FromStore(d, shards)
		for _, workers := range []int{1, 2, 4} {
			sp, err := plan.Compile(e, s, plan.Options{Optimize: true, Workers: workers})
			if err != nil {
				t.Fatalf("%s: sharded compile: %v", e, err)
			}
			if err := sameEmission(want, sp.Execute()); err != nil {
				t.Errorf("%s: shards=%d workers=%d: %v", e, shards, workers, err)
			}
		}
	}
}

// TestPlannerEquivalenceCorpus sweeps the full operator corpus over
// randomized set-join databases.
func TestPlannerEquivalenceCorpus(t *testing.T) {
	for seed := int64(0); seed < 3; seed++ {
		d := setJoinDatabase(seed)
		for _, e := range testCorpus() {
			checkEquivalence(t, fmt.Sprintf("corpus seed %d %s", seed, e), e, d)
		}
	}
}

// TestPlannerEquivalenceDivision sweeps the division expressions —
// the rewrites that change engines and enable the shard fast path —
// over randomized division workloads, including degenerate draws
// (empty S, empty R) where the rewrite guards must decline.
func TestPlannerEquivalenceDivision(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		d := workload.RandomDivision(seed).Database()
		checkEquivalence(t, fmt.Sprintf("division seed %d", seed), ra.DivisionExpr("R", "S"), d)
		checkEquivalence(t, fmt.Sprintf("eq-division seed %d", seed), ra.EqualityDivisionExpr("R", "S"), d)
	}
	empty := rel.NewDatabase(rel.NewSchema(map[string]int{"R": 2, "S": 1}))
	checkEquivalence(t, "division empty", ra.DivisionExpr("R", "S"), empty)
}

// TestPlannerEquivalenceSetJoins sweeps the set-join idioms, whose
// inner semijoin shapes are where the linearize rule fires.
func TestPlannerEquivalenceSetJoins(t *testing.T) {
	for seed := int64(10); seed < 14; seed++ {
		d := setJoinDatabase(seed)
		checkEquivalence(t, fmt.Sprintf("set-containment seed %d", seed), ra.SetContainmentJoinExpr("R", "S"), d)
		checkEquivalence(t, fmt.Sprintf("set-equality seed %d", seed), ra.SetEqualityJoinExpr("R", "S"), d)
	}
}
