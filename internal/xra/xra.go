// Package xra implements the "more powerful relational algebra" of the
// paper's Section 5: pure RA extended with a grouping-and-counting
// operator γ. The paper closes by noting that although division needs
// quadratic intermediate results in pure RA, the richer algebra
// expresses containment division by the linear expression
//
//	π_A( γ_{A,count(B)}(R ⋈_{B=C} S) ⋈_{count(B)=count(C)} γ_{∅,count(C)}(S) )
//
// and equality division by an analogous one. This package provides γ,
// an instrumented evaluator, and those two expressions, so the
// experiments can demonstrate the linear escape hatch.
package xra

import (
	"fmt"
	"strings"

	"radiv/internal/ra"
	"radiv/internal/rel"
)

// Expr is an extended-algebra expression: pure RA plus γ.
type Expr interface {
	Arity() int
	Children() []Expr
	String() string
}

// Wrap lifts a pure RA expression into the extended algebra.
type Wrap struct{ E ra.Expr }

// Arity implements Expr.
func (w *Wrap) Arity() int { return w.E.Arity() }

// Children implements Expr.
func (w *Wrap) Children() []Expr { return nil }

// String implements Expr.
func (w *Wrap) String() string { return w.E.String() }

// Gamma is γ_{groupCols, count(col)}(E): group the input by the listed
// columns and append the count of distinct values of CountCol within
// each group. CountCol = 0 counts tuples (count(*)). The output arity
// is len(GroupCols)+1 and the count is an integer value.
type Gamma struct {
	GroupCols []int
	CountCol  int
	E         Expr
}

// NewGamma builds the grouping operator, validating column indices.
func NewGamma(groupCols []int, countCol int, e Expr) *Gamma {
	for _, c := range groupCols {
		if c < 1 || c > e.Arity() {
			panic(fmt.Sprintf("xra: group column %d out of range 1..%d", c, e.Arity()))
		}
	}
	if countCol < 0 || countCol > e.Arity() {
		panic(fmt.Sprintf("xra: count column %d out of range 0..%d", countCol, e.Arity()))
	}
	return &Gamma{GroupCols: append([]int(nil), groupCols...), CountCol: countCol, E: e}
}

// Arity implements Expr.
func (g *Gamma) Arity() int { return len(g.GroupCols) + 1 }

// Children implements Expr.
func (g *Gamma) Children() []Expr { return []Expr{g.E} }

// String implements Expr.
func (g *Gamma) String() string {
	cols := make([]string, len(g.GroupCols))
	for i, c := range g.GroupCols {
		cols[i] = fmt.Sprint(c)
	}
	count := "*"
	if g.CountCol > 0 {
		count = fmt.Sprint(g.CountCol)
	}
	return fmt.Sprintf("gamma[%s;count(%s)](%s)", strings.Join(cols, ","), count, g.E)
}

// Join is the θ-join of the extended algebra.
type Join struct {
	L, E Expr
	Cond ra.Cond
}

// NewJoin builds the join, validating the condition.
func NewJoin(l Expr, c ra.Cond, r Expr) *Join {
	if err := c.Validate(l.Arity(), r.Arity()); err != nil {
		panic("xra: " + err.Error())
	}
	return &Join{L: l, E: r, Cond: append(ra.Cond(nil), c...)}
}

// Arity implements Expr.
func (j *Join) Arity() int { return j.L.Arity() + j.E.Arity() }

// Children implements Expr.
func (j *Join) Children() []Expr { return []Expr{j.L, j.E} }

// String implements Expr.
func (j *Join) String() string { return fmt.Sprintf("join[%s](%s, %s)", j.Cond, j.L, j.E) }

// Project is π in the extended algebra.
type Project struct {
	Cols []int
	E    Expr
}

// NewProject builds the projection.
func NewProject(cols []int, e Expr) *Project {
	for _, c := range cols {
		if c < 1 || c > e.Arity() {
			panic(fmt.Sprintf("xra: projection index %d out of range 1..%d", c, e.Arity()))
		}
	}
	return &Project{Cols: append([]int(nil), cols...), E: e}
}

// Arity implements Expr.
func (p *Project) Arity() int { return len(p.Cols) }

// Children implements Expr.
func (p *Project) Children() []Expr { return []Expr{p.E} }

// String implements Expr.
func (p *Project) String() string {
	cols := make([]string, len(p.Cols))
	for i, c := range p.Cols {
		cols[i] = fmt.Sprint(c)
	}
	return fmt.Sprintf("project[%s](%s)", strings.Join(cols, ","), p.E)
}

// Eval evaluates the expression on a store (any rel.ReadStore backend).
func Eval(e Expr, d rel.ReadStore) *rel.Relation {
	r, _ := EvalTraced(e, d)
	return r
}

// EvalTraced evaluates the expression with intermediate-size tracing.
// Wrapped pure-RA subexpressions contribute their own internal trace.
// The expression is validated first (Validate), so malformed trees —
// possible through direct struct construction — fail with a clear
// "xra:"-prefixed panic instead of a raw index-out-of-range.
//
// The returned relation is always owned by the caller: every operator
// node returns a fresh relation, and a root *Wrap delegates to
// ra.EvalTraced, which clones bare-relation results.
func EvalTraced(e Expr, d rel.ReadStore) (*rel.Relation, *ra.Trace) {
	if err := Validate(e); err != nil {
		panic("xra: invalid expression: " + err.Error())
	}
	tr := &ra.Trace{}
	res := eval(e, d, tr)
	return res, tr
}

func eval(e Expr, d rel.ReadStore, tr *ra.Trace) *rel.Relation {
	var out *rel.Relation
	switch n := e.(type) {
	case *Wrap:
		res, inner := ra.EvalTraced(n.E, d)
		for _, s := range inner.Steps {
			tr.Record(s.Expr, s.Size)
		}
		return res // already recorded via inner steps
	case *Gamma:
		in := eval(n.E, d, tr)
		out = evalGamma(n, in)
	case *Join:
		l := eval(n.L, d, tr)
		r := eval(n.E, d, tr)
		out = evalJoin(n.Cond, l, r)
	case *Project:
		out = eval(n.E, d, tr).Project(n.Cols...)
	default:
		panic(fmt.Sprintf("xra: unknown expression %T", e))
	}
	tr.Record(e, out.Len())
	return out
}

// gammaAgg accumulates γ groups on interned value IDs for the
// materialized evaluator. Group keys are interned per component and
// bucketed by rel.HashIDs with representative-tuple verification (the
// same hash-then-confirm scheme rel.Relation uses for dedup), and
// distinct counted values are tracked as interned IDs per group — no
// Tuple.Key strings are built anywhere. Its input is a relation, a set
// already, so count(*) needs no full-tuple deduplication.
type gammaAgg struct {
	g       *Gamma
	keys    *rel.Interner      // group-column values -> IDs
	vals    *rel.Interner      // counted-column values -> IDs
	buckets map[uint64][]int32 // HashIDs of the group-key IDs -> group indices
	groups  []*gammaGroup      // first-occurrence order
	idbuf   []uint32
}

type gammaGroup struct {
	rep  rel.Tuple
	seen map[uint32]bool
	n    int
}

func newGammaAgg(g *Gamma) *gammaAgg {
	a := &gammaAgg{
		g:       g,
		keys:    rel.NewInterner(),
		buckets: make(map[uint64][]int32),
		idbuf:   make([]uint32, len(g.GroupCols)),
	}
	if g.CountCol > 0 {
		a.vals = rel.NewInterner()
	}
	return a
}

// add folds one input tuple into the aggregate.
func (a *gammaAgg) add(t rel.Tuple) {
	for i, c := range a.g.GroupCols {
		a.idbuf[i] = a.keys.Intern(t[c-1])
	}
	h := rel.HashIDs(a.idbuf)
	var grp *gammaGroup
	for _, gi := range a.buckets[h] {
		cand := a.groups[gi]
		if keyEqual(cand.rep, t, a.g.GroupCols) {
			grp = cand
			break
		}
	}
	if grp == nil {
		grp = &gammaGroup{rep: t.Project(a.g.GroupCols)}
		if a.g.CountCol > 0 {
			grp.seen = make(map[uint32]bool)
		}
		a.buckets[h] = append(a.buckets[h], int32(len(a.groups)))
		a.groups = append(a.groups, grp)
	}
	if a.g.CountCol == 0 {
		grp.n++
	} else if vid := a.vals.Intern(t[a.g.CountCol-1]); !grp.seen[vid] {
		grp.seen[vid] = true
		grp.n++
	}
}

// keyEqual reports whether rep equals t projected onto cols.
func keyEqual(rep, t rel.Tuple, cols []int) bool {
	for i, c := range cols {
		if !rep[i].Equal(t[c-1]) {
			return false
		}
	}
	return true
}

// result materializes the aggregate rows in group first-occurrence
// order, with the SQL-style zero row for an empty grand aggregate.
func (a *gammaAgg) result() *rel.Relation {
	out := rel.NewRelation(len(a.g.GroupCols) + 1)
	for _, grp := range a.groups {
		out.Add(grp.rep.Concat(rel.Tuple{rel.Int(int64(grp.n))}))
	}
	if len(a.g.GroupCols) == 0 && out.Len() == 0 {
		// Grand aggregate over an empty input is a single zero row, as
		// in SQL.
		out.Add(rel.Tuple{rel.Int(0)})
	}
	return out
}

func evalGamma(g *Gamma, in *rel.Relation) *rel.Relation {
	agg := newGammaAgg(g)
	for c := in.Cursor(); ; {
		t, ok := c.Next()
		if !ok {
			break
		}
		agg.add(t)
	}
	return agg.result()
}

// evalJoin computes l ⋈θ r with the same interned-ID keying as the RA
// evaluator (ra.JoinKeyer): equality atoms drive a hash join, residual
// atoms are verified per candidate by Cond.Holds, and conditions
// without equalities fall back to nested loops. No per-tuple key
// strings are built.
func evalJoin(cond ra.Cond, l, r *rel.Relation) *rel.Relation {
	out := rel.NewRelation(l.Arity() + r.Arity())
	lt, rt := l.Tuples(), r.Tuples()
	eqs := cond.EqPairs()
	if len(eqs) == 0 {
		for _, a := range lt {
			for _, b := range rt {
				if cond.Holds(a, b) {
					out.Add(a.Concat(b))
				}
			}
		}
		return out
	}
	kr := ra.NewJoinKeyer(eqs)
	index := make(map[uint64][]rel.Tuple, r.Len())
	for _, b := range rt {
		k, _ := kr.Key(b, 1)
		index[k] = append(index[k], b)
	}
	for _, a := range lt {
		k, ok := kr.Key(a, 0)
		if !ok {
			continue
		}
		for _, b := range index[k] {
			if cond.Holds(a, b) {
				out.Add(a.Concat(b))
			}
		}
	}
	return out
}

// ContainmentDivision returns Section 5's linear expression for
// containment division of binary R by unary S:
//
//	π_A( γ_{A,count(B)}(R ⋈_{B=C} S) ⋈_{count=count} γ_{∅,count(C)}(S) )
func ContainmentDivision(rName, sName string) Expr {
	r := &Wrap{E: ra.R(rName, 2)}
	s := &Wrap{E: ra.R(sName, 1)}
	matched := NewJoin(r, ra.Eq(2, 1), s)           // (A, B, C) with B = C
	perGroup := NewGamma([]int{1}, 2, matched)      // (A, count B)
	total := NewGamma(nil, 1, s)                    // (count C)
	joined := NewJoin(perGroup, ra.Eq(2, 1), total) // counts equal
	return NewProject([]int{1}, joined)
}

// EqualityDivision returns the analogous linear expression for
// equality division: the group's matched count must equal |S| and its
// total count must equal |S| as well.
func EqualityDivision(rName, sName string) Expr {
	r := &Wrap{E: ra.R(rName, 2)}
	s := &Wrap{E: ra.R(sName, 1)}
	matched := NewJoin(r, ra.Eq(2, 1), s)
	perGroup := NewGamma([]int{1}, 2, matched) // (A, matched count)
	totals := NewGamma([]int{1}, 2, r)         // (A, total count)
	sCount := NewGamma(nil, 1, s)              // (|S|)
	// (A, matched, A, total) with equal A's and matched = total:
	both := NewJoin(perGroup, ra.Eq(1, 1).And(ra.A(2, ra.OpEq, 2)), totals)
	withS := NewJoin(both, ra.Eq(2, 1), sCount) // matched = |S|
	return NewProject([]int{1}, withS)
}
