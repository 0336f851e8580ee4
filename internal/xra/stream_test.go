package xra

import (
	"fmt"
	"testing"

	"radiv/internal/ra"
	"radiv/internal/rel"
	"radiv/internal/workload"
)

// checkStreamed runs both evaluators and verifies byte-identical
// results (same tuples in the same insertion order), matching trace
// shapes, and the structural resident invariant; strict additionally
// asserts the linear-resident property against both flow counts and
// materialized intermediates.
func checkStreamed(t *testing.T, name string, e Expr, d *rel.Database, strict bool) {
	t.Helper()
	mat, mt := EvalTraced(e, d)
	str, st := EvalVectorized(nil, e, d, 0)
	matT, strT := mat.Tuples(), str.Tuples()
	if len(matT) != len(strT) {
		t.Fatalf("%s: streamed result has %d tuples, materialized %d", name, len(strT), len(matT))
	}
	for i := range matT {
		if !matT[i].Equal(strT[i]) {
			t.Fatalf("%s: tuple %d differs: streamed %v, materialized %v", name, i, strT[i], matT[i])
		}
	}
	if len(mt.Steps) != len(st.Steps) {
		t.Fatalf("%s: step counts differ: materialized %d, streamed %d", name, len(mt.Steps), len(st.Steps))
	}
	for i := range mt.Steps {
		if mt.Steps[i].Expr.String() != st.Steps[i].Expr.String() {
			t.Errorf("%s: step %d: materialized %s, streamed %s", name, i, mt.Steps[i].Expr, st.Steps[i].Expr)
		}
	}
	if st.MaxResident > st.TotalTuples {
		t.Errorf("%s: MaxResident %d > TotalTuples %d (structural invariant broken)", name, st.MaxResident, st.TotalTuples)
	}
	if mt.MaxResident != 0 {
		t.Errorf("%s: materialized trace reports MaxResident %d, want 0", name, mt.MaxResident)
	}
	if strict {
		if st.MaxResident > st.MaxIntermediate {
			t.Errorf("%s: MaxResident %d > streamed MaxIntermediate %d", name, st.MaxResident, st.MaxIntermediate)
		}
		if st.MaxResident > mt.MaxIntermediate {
			t.Errorf("%s: MaxResident %d > materialized MaxIntermediate %d", name, st.MaxResident, mt.MaxIntermediate)
		}
	}
}

// TestStreamedGammaDivisionEquivalence sweeps the Section 5 division
// expressions over randomized division workloads. The γ-plans stack a
// join build side under the γ accumulator (the accumulator fills while
// the build is still held), so the per-trace guarantee is the
// structural bound; the scaling claim — resident grows linearly — is
// TestStreamedResidentLinear's and experiment ST2's.
func TestStreamedGammaDivisionEquivalence(t *testing.T) {
	for seed := int64(0); seed < 30; seed++ {
		d := workload.RandomDivision(seed).Database()
		checkStreamed(t, fmt.Sprintf("containment seed %d", seed), ContainmentDivision("R", "S"), d, false)
		checkStreamed(t, fmt.Sprintf("equality seed %d", seed), EqualityDivision("R", "S"), d, false)
	}
}

// TestStreamedOperatorCorpus differentially tests the extended
// algebra's operators — γ in every configuration (count(*), count
// distinct, grand aggregate, γ over a dedup-deferring projection),
// joins across keying strategies, projections, wrapped RA
// subexpressions including blocking sinks — on randomized set-join
// databases {R/2, S/2}.
func TestStreamedOperatorCorpus(t *testing.T) {
	r2 := &Wrap{E: ra.R("R", 2)}
	s2 := &Wrap{E: ra.R("S", 2)}
	corpus := []struct {
		name   string
		e      Expr
		strict bool
	}{
		{"wrap-stored", r2, true},
		{"wrap-union", &Wrap{E: ra.NewUnion(ra.R("R", 2), ra.R("S", 2))}, false},
		{"wrap-diff", &Wrap{E: ra.NewDiff(ra.R("R", 2), ra.R("S", 2))}, true},
		{"project", NewProject([]int{2, 1}, r2), true},
		{"project-dup", NewProject([]int{1, 1}, r2), true},
		// count(*) over a duplicate-free input holds one entry per
		// group — strictly below its flow. count-distinct gammas and
		// count(*) over a dedup-deferring projection hold one entry per
		// distinct (group, value) pair or input tuple on top of the
		// groups, which can exceed the largest single flow, so those
		// carry the structural bound only.
		{"gamma-star", NewGamma([]int{1}, 0, r2), true},
		{"gamma-distinct", NewGamma([]int{1}, 2, r2), false},
		{"gamma-grand", NewGamma(nil, 1, r2), false},
		{"gamma-grand-star", NewGamma(nil, 0, r2), true},
		{"gamma-over-project", NewGamma([]int{1}, 0, NewProject([]int{2, 1}, r2)), false},
		{"gamma-two-cols", NewGamma([]int{2, 1}, 1, r2), false},
		{"join-eq1", NewJoin(r2, ra.Eq(2, 1), s2), true},
		{"join-eq2", NewJoin(r2, ra.EqAll([2]int{1, 1}, [2]int{2, 2}), s2), true},
		{"join-residual", NewJoin(r2, ra.Eq(1, 1).And(ra.A(2, ra.OpLt, 2)), s2), true},
		{"join-theta", NewJoin(r2, ra.Lt(2, 1), s2), true},
		{"product", NewJoin(r2, nil, s2), true},
		{"gamma-of-join", NewGamma([]int{1}, 3, NewJoin(r2, ra.Eq(2, 1), s2)), false},
		{"project-gamma-join", NewProject([]int{1}, NewGamma([]int{1}, 3, NewJoin(r2, ra.Eq(2, 1), s2))), false},
		// A difference streams its left input undeduped, so count(*)
		// over a wrapped diff-of-projection must full-tuple dedup (the
		// raMayEmitDuplicates Diff regression).
		{"gamma-star-over-wrapped-diff", NewGamma([]int{1}, 0,
			&Wrap{E: ra.NewDiff(ra.NewProject([]int{1}, ra.R("R", 2)), ra.NewProject([]int{1}, ra.R("S", 2)))}), false},
	}
	for seed := int64(0); seed < 12; seed++ {
		r, s := workload.RandomSetJoin(seed).Generate()
		d := rel.NewDatabase(rel.NewSchema(map[string]int{"R": 2, "S": 2}))
		for _, tp := range r.Tuples() {
			d.Add("R", tp)
		}
		for _, tp := range s.Tuples() {
			d.Add("S", tp)
		}
		for _, c := range corpus {
			checkStreamed(t, fmt.Sprintf("%s seed %d", c.name, seed), c.e, d, c.strict)
		}
	}
}

// TestStreamedResidentLinear is the Section 5 memory claim: on the
// growing division family, the streamed γ-division executor's resident
// peak grows linearly with the database, like its flow — while the
// pure-RA division expression's *flow* is provably quadratic on the
// same inputs (see ra's streaming suite for that half).
func TestStreamedResidentLinear(t *testing.T) {
	gen := func(n int) *rel.Database {
		d := rel.NewDatabase(rel.NewSchema(map[string]int{"R": 2, "S": 1}))
		for i := 0; i < n; i++ {
			d.AddInts("R", int64(i), int64(i%9))
			d.AddInts("R", int64(i), int64((i+3)%9))
			if i < n/4 {
				d.AddInts("S", int64(100+i))
			}
		}
		return d
	}
	e := ContainmentDivision("R", "S")
	var resident []ra.SizePoint
	for _, n := range []int{64, 128, 256, 512} {
		d := gen(n)
		_, tr := EvalVectorized(nil, e, d, 0)
		resident = append(resident, ra.SizePoint{DatabaseSize: d.Size(), MaxIntermediate: tr.MaxResident})
	}
	if p := ra.GrowthExponent(resident); p > 1.3 {
		t.Errorf("γ-division streamed resident exponent %.2f, want ~linear", p)
	}
}

// TestStreamedGammaCountOverWrappedDiff is the focused regression for
// the duplicate analysis: ra's difference cursor streams its left
// input undeduped, so π1(R) − S can emit the same tuple twice and a
// count(*) over it must deduplicate to stay exact. R = {(1,10),
// (1,11)} projects to two copies of (1); the diff passes both; the
// correct count is 1.
func TestStreamedGammaCountOverWrappedDiff(t *testing.T) {
	d := rel.NewDatabase(rel.NewSchema(map[string]int{"R": 2, "S": 1}))
	d.AddInts("R", 1, 10)
	d.AddInts("R", 1, 11)
	d.AddInts("S", 99)
	e := NewGamma([]int{1}, 0, &Wrap{E: ra.NewDiff(ra.NewProject([]int{1}, ra.R("R", 2)), ra.R("S", 1))})
	want := Eval(e, d)
	got, _ := EvalVectorized(nil, e, d, 0)
	if !got.Equal(want) {
		t.Fatalf("streamed γ over wrapped diff = %v, want %v", got, want)
	}
	if !want.Contains(rel.Ints(1, 1)) {
		t.Fatalf("materialized oracle wrong: %v", want)
	}
}

// TestEvalResultOwnership asserts the caller-owned-results contract
// for every xra evaluator, the same contract ra and sa regression-test:
// mutating a result must never write through to the database. The root
// shapes covered are a wrapped bare relation (delegating to ra, which
// clones) and an operator node (fresh relation by construction).
func TestEvalResultOwnership(t *testing.T) {
	build := func() *rel.Database {
		d := rel.NewDatabase(rel.NewSchema(map[string]int{"R": 2}))
		d.AddInts("R", 1, 2)
		d.AddInts("R", 3, 4)
		return d
	}
	evaluators := []struct {
		name string
		run  func(Expr, rel.ReadStore) *rel.Relation
	}{
		{"Eval", Eval},
		{"EvalTraced", func(e Expr, d rel.ReadStore) *rel.Relation {
			res, _ := EvalTraced(e, d)
			return res
		}},
		{"EvalVectorized", func(e Expr, d rel.ReadStore) *rel.Relation {
			res, _ := EvalVectorized(nil, e, d, 0)
			return res
		}},
	}
	intruder := rel.Ints(9, 9)
	for _, ev := range evaluators {
		d := build()
		res := ev.run(&Wrap{E: ra.R("R", 2)}, d)
		if !res.Add(intruder) {
			t.Fatalf("%s: result should accept a new tuple", ev.name)
		}
		if d.Rel("R").Contains(intruder) {
			t.Errorf("%s: adding to the result mutated the database", ev.name)
		}
		if got := d.Rel("R").Len(); got != 2 {
			t.Errorf("%s: database relation has %d tuples after result mutation, want 2", ev.name, got)
		}
	}
}

// TestValidateCatchesMalformedTrees covers struct-literal trees that
// bypass the checking constructors.
func TestValidateCatchesMalformedTrees(t *testing.T) {
	r2 := &Wrap{E: ra.R("R", 2)}
	bad := []struct {
		name string
		e    Expr
	}{
		{"gamma group", &Gamma{GroupCols: []int{5}, CountCol: 0, E: r2}},
		{"gamma count", &Gamma{GroupCols: []int{1}, CountCol: 9, E: r2}},
		{"join cond", &Join{L: r2, E: r2, Cond: ra.Eq(7, 1)}},
		{"project", &Project{Cols: []int{0}, E: r2}},
		{"wrapped ra", &Wrap{E: &ra.Project{Cols: []int{9}, E: ra.R("R", 2)}}},
	}
	for _, c := range bad {
		if err := Validate(c.e); err == nil {
			t.Errorf("%s: Validate accepted a malformed tree", c.name)
		}
	}
	if err := Validate(ContainmentDivision("R", "S")); err != nil {
		t.Errorf("Validate rejected the Section 5 expression: %v", err)
	}
}
