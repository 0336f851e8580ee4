package plan_test

import (
	"strings"
	"testing"

	"radiv/internal/plan"
	"radiv/internal/ra"
	"radiv/internal/rel"
	"radiv/internal/workload"
)

// TestConversionRoundTrip pins FromRA/ToRA as inverses over the
// operator corpus: the IR must represent every RA expression without
// loss, textual form included.
func TestConversionRoundTrip(t *testing.T) {
	for _, e := range testCorpus() {
		n := plan.FromRA(e)
		back, ok := plan.ToRA(n)
		if !ok {
			t.Fatalf("%s: ToRA failed", e)
		}
		if back.String() != e.String() {
			t.Errorf("round trip changed %s to %s", e, back)
		}
		if n.Arity() != e.Arity() {
			t.Errorf("%s: IR arity %d, expression arity %d", e, n.Arity(), e.Arity())
		}
	}
}

// TestDivisionRuleFires pins the tentpole rewrite: the classical
// division expression compiles to the γ-division plan on the xra
// engine, with the sharded fast path recognized, and only when S is
// nonempty.
func TestDivisionRuleFires(t *testing.T) {
	d := workload.RandomDivision(1).Database()
	p, err := plan.Compile(ra.DivisionExpr("R", "S"), d, plan.Options{Optimize: true})
	if err != nil {
		t.Fatal(err)
	}
	if p.Engine() != plan.EngineXRA {
		t.Fatalf("optimized division engine = %s, want %s\n%s", p.Engine(), plan.EngineXRA, p.Explain())
	}
	if fs := p.Firings(); len(fs) != 1 || fs[0].Rule != "division" {
		t.Fatalf("firings = %v, want one division firing", fs)
	}
	if !strings.Contains(p.Explain(), "fast path: sharded division") {
		t.Errorf("explain does not advertise the shard fast path:\n%s", p.Explain())
	}
}

// TestDivisionRuleDeclinesEmptyS pins the exactness guard: division by
// the empty set yields every candidate in RA but nothing under the
// γ-expression, so the rule must not fire.
func TestDivisionRuleDeclinesEmptyS(t *testing.T) {
	d := rel.NewDatabase(rel.NewSchema(map[string]int{"R": 2, "S": 1}))
	d.Add("R", rel.Tuple{rel.Int(1), rel.Int(10)})
	d.Add("R", rel.Tuple{rel.Int(2), rel.Int(11)})
	e := ra.DivisionExpr("R", "S")
	p, err := plan.Compile(e, d, plan.Options{Optimize: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range p.Firings() {
		if f.Rule == "division" {
			t.Fatalf("division rule fired with empty S: %v", f)
		}
	}
	got := p.Execute()
	want, _ := ra.EvalVectorized(nil, e, d, 0)
	if got.String() != want.String() {
		t.Fatalf("empty-S division: got\n%s\nwant\n%s", got, want)
	}
	if got.Len() != 2 {
		t.Fatalf("division by empty S must keep all candidates, got %d", got.Len())
	}
}

// TestLinearizeRuleFires pins the dichotomy rewrite on the canonical
// semijoin-shaped idiom π_l(l ⋈ π_keys(r)): structurally linear, so
// the optimized plan runs on the SA engine with semijoin operators.
func TestLinearizeRuleFires(t *testing.T) {
	d := setJoinDatabase(0)
	e := ra.EquiSemijoinExpr(ra.R("R", 2), ra.Eq(2, 1), ra.NewProject([]int{1}, ra.R("S", 2)))
	p, err := plan.Compile(e, d, plan.Options{Optimize: true})
	if err != nil {
		t.Fatal(err)
	}
	if p.Engine() != plan.EngineSA {
		t.Fatalf("optimized semijoin-shape engine = %s, want %s\n%s", p.Engine(), plan.EngineSA, p.Explain())
	}
	fired := false
	for _, f := range p.Firings() {
		if f.Rule == "linearize" {
			fired = true
		}
	}
	if !fired {
		t.Fatalf("linearize did not fire: %v", p.Firings())
	}
	got := p.Execute()
	want, err2 := plan.Compile(e, d, plan.Options{})
	if err2 != nil {
		t.Fatal(err2)
	}
	if got.String() != want.Execute().String() {
		t.Fatalf("linearized plan differs from unoptimized")
	}
}

// TestLinearizeRuleDeclinesDivision pins the other half of the
// dichotomy: the division expression's product join has unconstrained
// columns on both sides, so no exact SA= rewrite exists and the
// linearize rule must leave it alone (the division rule owns it).
func TestLinearizeRuleDeclinesDivision(t *testing.T) {
	d := rel.NewDatabase(rel.NewSchema(map[string]int{"R": 2, "T": 1}))
	d.Add("R", rel.Tuple{rel.Int(1), rel.Int(10)})
	d.Add("T", rel.Tuple{rel.Int(10)})
	// Division of R by T, but with the candidate set replaced by a
	// selection so the division rule's shape does not match either:
	// nothing may fire, and the plan must stay on the RA engine.
	cand := ra.NewProject([]int{1}, ra.NewSelect(1, ra.OpNe, 2, ra.R("R", 2)))
	e := ra.NewDiff(cand, ra.NewProject([]int{1},
		ra.NewDiff(ra.Product(cand, ra.R("T", 1)), ra.R("R", 2))))
	p, err := plan.Compile(e, d, plan.Options{Optimize: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Firings()) != 0 {
		t.Fatalf("rules fired on a quadratic plan with no linear rewrite: %v", p.Firings())
	}
	if p.Engine() != plan.EngineRA {
		t.Fatalf("engine = %s, want %s", p.Engine(), plan.EngineRA)
	}
}

// TestJoinOrderRuleCommutes pins join commutation: with a small probe
// side and a large build side the rule swaps them and restores column
// order with a projection, and results stay identical.
func TestJoinOrderRuleCommutes(t *testing.T) {
	d := rel.NewDatabase(rel.NewSchema(map[string]int{"Big": 2, "Tiny": 2}))
	for i := 0; i < 400; i++ {
		d.Add("Big", rel.Tuple{rel.Int(int64(i)), rel.Int(int64(i % 7))})
	}
	d.Add("Tiny", rel.Tuple{rel.Int(3), rel.Int(1)})
	d.Add("Tiny", rel.Tuple{rel.Int(4), rel.Int(2)})
	// Tiny ⋈ Big on a non-key pair: Big is the build side and 200x
	// larger, so commutation pays for the restoring projection.
	e := ra.NewJoin(ra.R("Tiny", 2), ra.Gt(1, 2), ra.R("Big", 2))
	// Gt has no equality atom — the rule must decline (stored replay).
	p, err := plan.Compile(e, d, plan.Options{Optimize: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range p.Firings() {
		if f.Rule == "joinorder" {
			t.Fatalf("joinorder fired on a θ-only join: %v", f)
		}
	}
	// With an equality atom it must fire and stay exact.
	e = ra.NewJoin(ra.R("Tiny", 2), ra.Eq(2, 2).And(ra.A(1, ra.OpLt, 1)), ra.R("Big", 2))
	p, err = plan.Compile(e, d, plan.Options{Optimize: true})
	if err != nil {
		t.Fatal(err)
	}
	fired := false
	for _, f := range p.Firings() {
		if f.Rule == "joinorder" {
			fired = true
		}
	}
	if !fired {
		t.Fatalf("joinorder did not fire on a 200x build side: %v\n%s", p.Firings(), p.Explain())
	}
	p0, err := plan.Compile(e, d, plan.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if p.Execute().String() != p0.Execute().String() {
		t.Fatal("commuted join differs from unoptimized")
	}
}

// TestSemijoinReduceRuleFires pins semijoin reduction: a huge,
// mostly-partnerless build side behind a tiny probe side is reduced,
// the plan leaves pure RA (it now holds a semijoin), and results stay
// identical.
func TestSemijoinReduceRuleFires(t *testing.T) {
	// Probe is big enough that commuting the join is priced as useless
	// (the estimated output exceeds the resident saving), but the build
	// side is still 40x larger, so pre-filtering it by the probe keys
	// wins.
	d := rel.NewDatabase(rel.NewSchema(map[string]int{"Small": 2, "Huge": 2}))
	for i := 0; i < 100; i++ {
		d.Add("Small", rel.Tuple{rel.Int(int64(i)), rel.Int(int64(i))})
	}
	for i := 0; i < 4000; i++ {
		d.Add("Huge", rel.Tuple{rel.Int(int64(i)), rel.Int(int64(i))})
	}
	e := ra.NewJoin(ra.R("Small", 2), ra.Eq(2, 1).And(ra.A(1, ra.OpLt, 2)), ra.R("Huge", 2))
	p, err := plan.Compile(e, d, plan.Options{Optimize: true})
	if err != nil {
		t.Fatal(err)
	}
	fired := false
	for _, f := range p.Firings() {
		if f.Rule == "semijoin" {
			fired = true
		}
	}
	if !fired {
		t.Fatalf("semijoin reduction did not fire: %v\n%s", p.Firings(), p.Explain())
	}
	if p.Engine() != plan.EngineMixed {
		t.Fatalf("reduced join engine = %s, want %s", p.Engine(), plan.EngineMixed)
	}
	p0, err := plan.Compile(e, d, plan.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if p.Execute().String() != p0.Execute().String() {
		t.Fatal("reduced join differs from unoptimized")
	}
}

// TestExplainEstimates pins the explain format: per-node estimates
// appear for every operator in the tree.
func TestExplainEstimates(t *testing.T) {
	d := workload.Division{Groups: 40, GroupSize: 4, DivisorSize: 3,
		MatchFraction: 0.5, Domain: 16, Seed: 7}.Database()
	p, err := plan.Compile(ra.DivisionExpr("R", "S"), d, plan.Options{Optimize: true})
	if err != nil {
		t.Fatal(err)
	}
	out := p.Explain()
	for _, want := range []string{"engine: xra", "gamma[1;count(2)]", "est rows", "rules fired:", "division"} {
		if !strings.Contains(out, want) {
			t.Errorf("explain output missing %q:\n%s", want, out)
		}
	}
}

// TestCompileRejectsInvalid pins the error path: a malformed
// expression (name/arity mismatch against the schema is caught at
// execution, structural errors at compile) returns an error instead of
// panicking.
func TestCompileRejectsInvalid(t *testing.T) {
	d := rel.NewDatabase(rel.NewSchema(map[string]int{"R": 2}))
	bad := &ra.Project{Cols: []int{7}, E: ra.R("R", 2)}
	if _, err := plan.Compile(bad, d, plan.Options{}); err == nil {
		t.Fatal("Compile accepted an out-of-range projection")
	}
}

// testCorpus is the streaming suite's operator corpus, shared with the
// equivalence test.
func testCorpus() []ra.Expr {
	r2 := ra.R("R", 2)
	s2 := ra.R("S", 2)
	idS := ra.NewProject([]int{1, 2}, s2)
	tag3 := func(e ra.Expr) ra.Expr { return ra.NewConstTag(rel.Int(7), e) }
	return []ra.Expr{
		ra.NewUnion(r2, s2),
		ra.NewUnion(ra.NewDiff(r2, s2), ra.NewDiff(s2, r2)),
		ra.NewDiff(r2, s2),
		ra.NewDiff(r2, idS),
		ra.NewSelect(1, ra.OpLt, 2, r2),
		ra.NewSelect(1, ra.OpNe, 2, r2),
		ra.NewSelectConst(2, rel.Int(1), r2),
		tag3(r2),
		ra.NewProject([]int{2, 1, 1}, r2),
		ra.NewJoin(r2, ra.Eq(2, 1), s2),
		ra.NewJoin(r2, ra.EqAll([2]int{1, 1}, [2]int{2, 2}), s2),
		ra.NewJoin(tag3(r2), ra.EqAll([2]int{1, 1}, [2]int{2, 2}, [2]int{3, 3}), tag3(s2)),
		ra.NewJoin(r2, ra.Eq(1, 1).And(ra.A(2, ra.OpLt, 2)), s2),
		ra.NewJoin(r2, ra.Lt(2, 1), s2),
		ra.NewJoin(r2, ra.Lt(2, 1), idS),
		ra.Product(r2, s2),
		ra.EquiSemijoinExpr(r2, ra.Eq(2, 1), ra.NewProject([]int{1}, s2)),
		ra.SetContainmentJoinExpr("R", "S"),
		ra.SetEqualityJoinExpr("R", "S"),
	}
}

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
