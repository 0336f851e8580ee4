package sa

import (
	"fmt"
	"testing"

	"radiv/internal/ra"
	"radiv/internal/rel"
	"radiv/internal/workload"
)

// setJoinDatabase wraps a RandomSetJoin draw into a database over
// {R/2, S/2}, as in the ra streaming suite.
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

// checkStreamed runs both evaluators and verifies byte-identical
// results (same tuples in the same insertion order), matching trace
// shapes, and the structural resident invariant MaxResident ≤
// TotalTuples. With strict set it additionally asserts the
// linear-resident property MaxResident ≤ MaxIntermediate against both
// the streamed flow counts and the materialized intermediates — the
// guarantee for plans whose build sides are all fed by their own
// recorded flows and not stacked concurrently.
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

// TestStreamedOperatorCorpus differentially tests every SA operator
// the streaming executor implements on randomized set-join databases:
// union (interior and root), difference with stored and streamed
// subtrahends, selections, constant selection and tagging, projections
// with duplicate-deferring consumers, and semijoins/antijoins across
// the keying strategies (one, two and three equality atoms, equality
// plus residual, pure theta against stored and computed right sides).
// Depth-one plans hold at most one build at a time, so they carry the
// strict linear-resident assertion; nested plans stack builds (the
// outer build drains while the inner one is still held) and get the
// structural bound only, exactly as the ra suite documents for its
// set-join plans.
func TestStreamedOperatorCorpus(t *testing.T) {
	r2 := R("R", 2)
	s2 := R("S", 2)
	idS := NewProject([]int{1, 2}, s2) // same as S, but not a stored relation
	tag3 := func(e Expr) Expr { return NewConstTag(rel.Int(7), e) }
	corpus := []struct {
		name   string
		e      Expr
		strict bool
	}{
		{"union", NewUnion(r2, s2), true},
		{"union-root-of-diff", NewUnion(NewDiff(r2, s2), NewDiff(s2, r2)), true},
		{"diff-stored-subtrahend", NewDiff(r2, s2), true},
		{"diff-streamed-subtrahend", NewDiff(r2, idS), true},
		{"select-lt", NewSelect(1, ra.OpLt, 2, r2), true},
		{"select-ne", NewSelect(1, ra.OpNe, 2, r2), true},
		{"select-const", NewSelectConst(2, rel.Int(1), r2), true},
		{"const-tag", tag3(r2), true},
		{"project-swap-dup", NewProject([]int{2, 1, 1}, r2), true},
		{"semijoin-eq1", NewSemijoin(r2, ra.Eq(2, 1), s2), true},
		{"semijoin-eq2", NewSemijoin(r2, ra.EqAll([2]int{1, 1}, [2]int{2, 2}), s2), true},
		{"semijoin-eq3", NewSemijoin(tag3(r2), ra.EqAll([2]int{1, 1}, [2]int{2, 2}, [2]int{3, 3}), tag3(s2)), true},
		{"semijoin-eq-residual", NewSemijoin(r2, ra.Eq(1, 1).And(ra.A(2, ra.OpLt, 2)), s2), true},
		{"semijoin-theta-stored", NewSemijoin(r2, ra.Lt(2, 1), s2), true},
		{"semijoin-theta-streamed", NewSemijoin(r2, ra.Lt(2, 1), idS), true},
		{"antijoin-eq1", NewAntijoin(r2, ra.Eq(2, 1), s2), true},
		{"antijoin-eq-residual", NewAntijoin(r2, ra.Eq(1, 1).And(ra.A(2, ra.OpGt, 2)), s2), true},
		{"antijoin-theta", NewAntijoin(r2, ra.Ne(1, 2), s2), true},
		{"nested-semijoin", NewSemijoin(r2, ra.Eq(2, 1), NewProject([]int{1}, NewSemijoin(s2, ra.Eq(2, 2), r2))), false},
		{"nested-anti-in-diff", NewDiff(NewProject([]int{1}, r2), NewProject([]int{1}, NewAntijoin(r2, ra.Eq(2, 2), s2))), false},
	}
	for seed := int64(0); seed < 12; seed++ {
		d := setJoinDatabase(seed)
		for _, c := range corpus {
			checkStreamed(t, fmt.Sprintf("%s seed %d", c.name, seed), c.e, d, c.strict)
		}
	}
}

// TestStreamedDivisionFamily sweeps the SA expressions of the division
// family — the semijoin and antijoin shapes SA can express (division
// itself is out of reach, Proposition 26) — over randomized division
// workloads, with the strict linear-resident assertion throughout.
func TestStreamedDivisionFamily(t *testing.T) {
	r2 := R("R", 2)
	s1 := R("S", 1)
	corpus := []struct {
		name string
		e    Expr
	}{
		{"semijoin", NewSemijoin(r2, ra.Eq(2, 1), s1)},
		{"antijoin", NewAntijoin(r2, ra.Eq(2, 1), s1)},
		{"project-semijoin", NewProject([]int{1}, NewSemijoin(r2, ra.Eq(2, 1), s1))},
		{"matched-groups", NewProject([]int{1}, NewAntijoin(r2, ra.Eq(2, 1), s1))},
	}
	for seed := int64(0); seed < 30; seed++ {
		d := workload.RandomDivision(seed).Database()
		for _, c := range corpus {
			checkStreamed(t, fmt.Sprintf("%s seed %d", c.name, seed), c.e, d, true)
		}
	}
}

// TestStreamedLousyBar pins the paper's Example 3 expression end to
// end on randomized beer databases.
func TestStreamedLousyBar(t *testing.T) {
	for seed := int64(0); seed < 15; seed++ {
		d := workload.BeerDatabase(seed, 8+int(seed)*3, 6)
		checkStreamed(t, fmt.Sprintf("lousy-bar seed %d", seed), LousyBarExpr(), d, false)
	}
}

// TestStreamedResidentLinear is the ST2 scaling claim in test form: on
// a growing division family the streamed SA executor's resident peak
// grows linearly with the database, with an exponent matching the flow
// (SA is linear on both axes — the point of Definition 2 — in contrast
// to RA division, whose flow is quadratic while only its resident
// footprint is linear).
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
	e := NewProject([]int{1}, NewAntijoin(R("R", 2), ra.Eq(2, 1), R("S", 1)))
	var resident []ra.SizePoint
	for _, n := range []int{64, 128, 256, 512} {
		d := gen(n)
		_, tr := EvalVectorized(nil, e, d, 0)
		resident = append(resident, ra.SizePoint{DatabaseSize: d.Size(), MaxIntermediate: tr.MaxResident})
	}
	if p := ra.GrowthExponent(resident); p > 1.3 {
		t.Errorf("SA streamed resident exponent %.2f, want ~linear", p)
	}
}
