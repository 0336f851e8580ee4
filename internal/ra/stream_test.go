package ra_test

import (
	"fmt"
	"testing"

	"radiv/internal/ra"
	"radiv/internal/rel"
	"radiv/internal/workload"
)

// setJoinDatabase wraps a RandomSetJoin draw into a database over
// {R/2, S/2}.
func setJoinDatabase(seed int64) *rel.Database {
	r, s := workload.RandomSetJoin(seed).Generate()
	d := rel.NewDatabase(rel.NewSchema(map[string]int{"R": 2, "S": 2}))
	for _, t := range r.Tuples() {
		d.Add("R", t)
	}
	for _, t := range s.Tuples() {
		d.Add("S", t)
	}
	return d
}

// checkStreamedAgainstMaterialized runs both evaluators and verifies
// the results are identical and the structural resident invariant
// holds: every tuple the streaming executor holds flowed through some
// operator, so MaxResident can never exceed TotalTuples.
func checkStreamedAgainstMaterialized(t *testing.T, name string, e ra.Expr, d *rel.Database) (*ra.Trace, *ra.Trace) {
	t.Helper()
	mat, mt := ra.EvalTraced(e, d)
	str, st := ra.EvalVectorized(nil, e, d, 0)
	if !mat.Equal(str) {
		t.Fatalf("%s: streamed result differs from materialized\nmaterialized:\n%s\nstreamed:\n%s", name, mat, str)
	}
	if st.MaxResident > st.TotalTuples {
		t.Errorf("%s: MaxResident %d > TotalTuples %d (structural invariant broken)", name, st.MaxResident, st.TotalTuples)
	}
	if mt.MaxResident != 0 {
		t.Errorf("%s: materialized trace reports MaxResident %d, want 0", name, mt.MaxResident)
	}
	return mt, st
}

// TestStreamedDivisionEquivalence sweeps randomized division workloads
// through the classical containment and equality division expressions.
// On the classical (containment) expression the streaming plan holds a
// single sink at a time, so its resident peak is bounded by the
// largest flow: MaxResident ≤ MaxIntermediate on every trace, both
// against the streamed flow counts and against the materialized
// intermediates.
func TestStreamedDivisionEquivalence(t *testing.T) {
	for seed := int64(0); seed < 30; seed++ {
		d := workload.RandomDivision(seed).Database()
		mt, st := checkStreamedAgainstMaterialized(t, fmt.Sprintf("division seed %d", seed), ra.DivisionExpr("R", "S"), d)
		if st.MaxResident > st.MaxIntermediate {
			t.Errorf("seed %d: MaxResident %d > streamed MaxIntermediate %d", seed, st.MaxResident, st.MaxIntermediate)
		}
		if st.MaxResident > mt.MaxIntermediate {
			t.Errorf("seed %d: MaxResident %d > materialized MaxIntermediate %d", seed, st.MaxResident, mt.MaxIntermediate)
		}
		checkStreamedAgainstMaterialized(t, fmt.Sprintf("eq-division seed %d", seed), ra.EqualityDivisionExpr("R", "S"), d)
	}
}

// TestStreamedSetJoinEquivalence sweeps randomized set-join workloads
// through the classical set-containment and set-equality join
// expressions. These plans keep several blocking sinks live at once
// (the non-containment witness sink overlaps the verification join's
// build side), so the *sum* of held state can slightly exceed the
// largest single flow; the per-trace guarantee here is the structural
// one checked by checkStreamedAgainstMaterialized, and result
// equivalence.
func TestStreamedSetJoinEquivalence(t *testing.T) {
	for seed := int64(0); seed < 15; seed++ {
		d := setJoinDatabase(seed)
		checkStreamedAgainstMaterialized(t, fmt.Sprintf("set-containment seed %d", seed), ra.SetContainmentJoinExpr("R", "S"), d)
		checkStreamedAgainstMaterialized(t, fmt.Sprintf("set-equality seed %d", seed), ra.SetEqualityJoinExpr("R", "S"), d)
	}
}

// TestStreamedOperatorCorpus differentially tests every operator the
// streaming executor implements — union, difference with streamed and
// stored subtrahends, selections, constant selection and tagging,
// projections, equi joins (one, two and three equality atoms), theta
// joins without equalities against stored and computed build sides —
// on randomized databases, including the desugared forms.
func TestStreamedOperatorCorpus(t *testing.T) {
	r2 := ra.R("R", 2)
	s2 := ra.R("S", 2)
	idS := ra.NewProject([]int{1, 2}, s2) // same as S, but not a stored relation
	tag3 := func(e ra.Expr) ra.Expr { return ra.NewConstTag(rel.Int(7), e) }
	corpus := []struct {
		name string
		e    ra.Expr
	}{
		{"union", ra.NewUnion(r2, s2)},
		{"union-root-of-diff", ra.NewUnion(ra.NewDiff(r2, s2), ra.NewDiff(s2, r2))},
		{"diff-stored-subtrahend", ra.NewDiff(r2, s2)},
		{"diff-streamed-subtrahend", ra.NewDiff(r2, idS)},
		{"select-lt", ra.NewSelect(1, ra.OpLt, 2, r2)},
		{"select-ne", ra.NewSelect(1, ra.OpNe, 2, r2)},
		{"select-const", ra.NewSelectConst(2, rel.Int(1), r2)},
		{"const-tag", tag3(r2)},
		{"project-swap-dup", ra.NewProject([]int{2, 1, 1}, r2)},
		{"equi-join-1", ra.NewJoin(r2, ra.Eq(2, 1), s2)},
		{"equi-join-2", ra.NewJoin(r2, ra.EqAll([2]int{1, 1}, [2]int{2, 2}), s2)},
		{"equi-join-3", ra.NewJoin(tag3(r2), ra.EqAll([2]int{1, 1}, [2]int{2, 2}, [2]int{3, 3}), tag3(s2))},
		{"equi-join-residual", ra.NewJoin(r2, ra.Eq(1, 1).And(ra.A(2, ra.OpLt, 2)), s2)},
		{"theta-join-stored", ra.NewJoin(r2, ra.Lt(2, 1), s2)},
		{"theta-join-streamed", ra.NewJoin(r2, ra.Lt(2, 1), idS)},
		{"product", ra.Product(r2, s2)},
		{"semijoin-shape", ra.EquiSemijoinExpr(r2, ra.Eq(2, 1), ra.NewProject([]int{1}, s2))},
	}
	for seed := int64(0); seed < 10; seed++ {
		d := setJoinDatabase(seed)
		for _, c := range corpus {
			checkStreamedAgainstMaterialized(t, fmt.Sprintf("%s seed %d", c.name, seed), c.e, d)
			checkStreamedAgainstMaterialized(t, fmt.Sprintf("desugared %s seed %d", c.name, seed), ra.Desugar(c.e), d)
		}
	}
}

// TestStreamedTraceShape pins the streamed trace's step order to the
// materialized one: same nodes, same post-order. Step sizes may
// legitimately differ — dedup-deferred projections count duplicates,
// and stored relations consumed in place count zero flow.
func TestStreamedTraceShape(t *testing.T) {
	d := workload.RandomDivision(3).Database()
	e := ra.DivisionExpr("R", "S")
	_, mt := ra.EvalTraced(e, d)
	_, st := ra.EvalVectorized(nil, e, d, 0)
	if len(mt.Steps) != len(st.Steps) {
		t.Fatalf("step counts differ: materialized %d, streamed %d", len(mt.Steps), len(st.Steps))
	}
	for i := range mt.Steps {
		if mt.Steps[i].Expr.String() != st.Steps[i].Expr.String() {
			t.Errorf("step %d: materialized %s, streamed %s", i, mt.Steps[i].Expr, st.Steps[i].Expr)
		}
	}
	// The root is a set either way: identical final sizes.
	if mt.Steps[len(mt.Steps)-1].Size == 0 && st.Steps[len(st.Steps)-1].Size != 0 {
		t.Errorf("root sizes disagree on emptiness")
	}
}

// TestStreamedResidentGrowsSlower is the scaling claim on the
// classical division expression: as the database grows, the streamed
// executor's resident peak grows linearly while the flow it measures
// (and the materialized evaluator's intermediates) grow quadratically.
func TestStreamedResidentGrowsSlower(t *testing.T) {
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
	e := ra.DivisionExpr("R", "S")
	// GrowthExponent fits the MaxIntermediate field against
	// DatabaseSize; the resident series carries MaxResident there.
	var resident, flow []ra.SizePoint
	for _, n := range []int{64, 128, 256, 512} {
		d := gen(n)
		_, tr := ra.EvalVectorized(nil, e, d, 0)
		resident = append(resident, ra.SizePoint{DatabaseSize: d.Size(), MaxIntermediate: tr.MaxResident})
		flow = append(flow, ra.SizePoint{DatabaseSize: d.Size(), MaxIntermediate: tr.MaxIntermediate})
	}
	pRes, pFlow := ra.GrowthExponent(resident), ra.GrowthExponent(flow)
	if pFlow < 1.7 {
		t.Errorf("flow exponent %.2f, want quadratic (the paper's lower bound)", pFlow)
	}
	if pRes > 1.3 {
		t.Errorf("resident exponent %.2f, want ~linear", pRes)
	}
	if pRes >= pFlow {
		t.Errorf("resident exponent %.2f not strictly below flow exponent %.2f", pRes, pFlow)
	}
}

// TestStreamedUnionRootResident pins the MaxResident contract at a
// union root: the result relation is not operator state, so a union of
// two stored relations — which needs no auxiliary state at all — must
// report zero resident tuples, while an interior union sink still
// counts.
func TestStreamedUnionRootResident(t *testing.T) {
	d := setJoinDatabase(1)
	res, tr := ra.EvalVectorized(nil, ra.NewUnion(ra.R("R", 2), ra.R("S", 2)), d, 0)
	if tr.MaxResident != 0 {
		t.Errorf("union-rooted plan reports MaxResident %d, want 0 (result is not operator state)", tr.MaxResident)
	}
	if want := ra.Eval(ra.NewUnion(ra.R("R", 2), ra.R("S", 2)), d); !res.Equal(want) {
		t.Errorf("union-rooted streamed result differs from materialized")
	}
	// The same union as an interior node is a genuine blocking sink.
	inner := ra.NewProject([]int{1}, ra.NewUnion(ra.R("R", 2), ra.R("S", 2)))
	_, tr = ra.EvalVectorized(nil, inner, d, 0)
	if tr.MaxResident == 0 {
		t.Errorf("interior union sink reported no resident state")
	}
}
