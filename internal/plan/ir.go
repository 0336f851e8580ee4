// Package plan implements the linearization-aware query planner: a
// unified plan IR spanning the repository's three algebras (RA of
// Definition 1, the semijoin algebra SA of Definition 2, and the
// γ-extended algebra of Section 5), a rule-driven rewrite framework
// priced by the shared cost model of internal/plan/cost, and an
// executor that routes the rewritten plan to the cheapest existing
// streaming engine — ra, sa or xra when the plan fits one of them, a
// native mixed batch plan on the same ra batch substrate otherwise.
//
// The planner is the paper's dichotomy theorem made operational: a
// query the user wrote quadratically is rewritten to a linear-flow
// plan whenever the dichotomy allows (the structurally linear RA
// fragment goes to SA= via core.LinearizeExact; the division family
// goes to the Section 5 γ-expression), and classic join commutation
// and semijoin reduction trim what stays quadratic.
package plan

import (
	"fmt"
	"strings"

	"radiv/internal/ra"
	"radiv/internal/rel"
)

// Kind enumerates the IR's node kinds: the union of the three
// algebras' operators.
type Kind uint8

const (
	// KRel is a stored relation name.
	KRel Kind = iota
	// KUnion is E1 ∪ E2.
	KUnion
	// KDiff is E1 − E2.
	KDiff
	// KProject is π_{cols}(E).
	KProject
	// KSelect is σ_{i op j}(E).
	KSelect
	// KSelectConst is σ_{i=c}(E).
	KSelectConst
	// KConstTag is τ_c(E).
	KConstTag
	// KJoin is E1 ⋈θ E2 (RA/XRA only).
	KJoin
	// KSemijoin is E1 ⋉θ E2 (SA only).
	KSemijoin
	// KAntijoin is E1 ▷θ E2 (SA only).
	KAntijoin
	// KGamma is γ_{cols, count}(E) (XRA only).
	KGamma
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case KRel:
		return "rel"
	case KUnion:
		return "union"
	case KDiff:
		return "diff"
	case KProject:
		return "project"
	case KSelect:
		return "select"
	case KSelectConst:
		return "selectc"
	case KConstTag:
		return "tag"
	case KJoin:
		return "join"
	case KSemijoin:
		return "semijoin"
	case KAntijoin:
		return "antijoin"
	case KGamma:
		return "gamma"
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Node is one IR operator. Nodes are immutable once built — rewrites
// construct fresh nodes and may share unchanged subtrees, so a plan is
// a DAG whose shared subplans are evaluated once per occurrence.
type Node struct {
	Kind Kind
	// Name is the relation name (KRel).
	Name string
	// Cols are the projection columns (KProject) or group columns
	// (KGamma).
	Cols []int
	// I, Op, J describe a column selection (KSelect); KSelectConst
	// uses I.
	I  int
	Op ra.Op
	J  int
	// C is the constant of KSelectConst and KConstTag.
	C rel.Value
	// Cond is the θ of KJoin, KSemijoin and KAntijoin.
	Cond ra.Cond
	// CountCol is KGamma's counted column (0 = count(*)).
	CountCol int
	// Kids are the operand subplans, left to right.
	Kids []*Node

	arity int
}

// Arity returns the arity of the node's results.
func (n *Node) Arity() int { return n.arity }

// NRel builds a stored-relation leaf.
func NRel(name string, arity int) *Node {
	return &Node{Kind: KRel, Name: name, arity: arity}
}

// NUnion builds E1 ∪ E2, checking arities.
func NUnion(l, r *Node) *Node {
	if l.arity != r.arity {
		panic(fmt.Sprintf("plan: union of arities %d and %d", l.arity, r.arity))
	}
	return &Node{Kind: KUnion, Kids: []*Node{l, r}, arity: l.arity}
}

// NDiff builds E1 − E2, checking arities.
func NDiff(l, r *Node) *Node {
	if l.arity != r.arity {
		panic(fmt.Sprintf("plan: difference of arities %d and %d", l.arity, r.arity))
	}
	return &Node{Kind: KDiff, Kids: []*Node{l, r}, arity: l.arity}
}

// NProject builds π_{cols}(E), checking index ranges.
func NProject(cols []int, e *Node) *Node {
	for _, c := range cols {
		if c < 1 || c > e.arity {
			panic(fmt.Sprintf("plan: projection index %d out of range 1..%d", c, e.arity))
		}
	}
	return &Node{Kind: KProject, Cols: append([]int(nil), cols...), Kids: []*Node{e}, arity: len(cols)}
}

// NSelect builds σ_{i op j}(E), checking index ranges.
func NSelect(i int, op ra.Op, j int, e *Node) *Node {
	if i < 1 || i > e.arity || j < 1 || j > e.arity {
		panic(fmt.Sprintf("plan: selection σ%d%s%d on arity %d", i, op, j, e.arity))
	}
	return &Node{Kind: KSelect, I: i, Op: op, J: j, Kids: []*Node{e}, arity: e.arity}
}

// NSelectConst builds σ_{i=c}(E).
func NSelectConst(i int, c rel.Value, e *Node) *Node {
	if i < 1 || i > e.arity {
		panic(fmt.Sprintf("plan: selection σ%d='%v' on arity %d", i, c, e.arity))
	}
	return &Node{Kind: KSelectConst, I: i, C: c, Kids: []*Node{e}, arity: e.arity}
}

// NConstTag builds τ_c(E).
func NConstTag(c rel.Value, e *Node) *Node {
	return &Node{Kind: KConstTag, C: c, Kids: []*Node{e}, arity: e.arity + 1}
}

// NJoin builds E1 ⋈θ E2, validating the condition.
func NJoin(l *Node, c ra.Cond, r *Node) *Node {
	if err := c.Validate(l.arity, r.arity); err != nil {
		panic("plan: " + err.Error())
	}
	return &Node{Kind: KJoin, Cond: append(ra.Cond(nil), c...), Kids: []*Node{l, r}, arity: l.arity + r.arity}
}

// NSemijoin builds E1 ⋉θ E2, validating the condition (which must be
// nonempty, as in Definition 2).
func NSemijoin(l *Node, c ra.Cond, r *Node) *Node {
	return semiLike(KSemijoin, l, c, r)
}

// NAntijoin builds E1 ▷θ E2, validating the condition.
func NAntijoin(l *Node, c ra.Cond, r *Node) *Node {
	return semiLike(KAntijoin, l, c, r)
}

func semiLike(k Kind, l *Node, c ra.Cond, r *Node) *Node {
	if len(c) == 0 {
		panic(fmt.Sprintf("plan: %s requires at least one condition atom", k))
	}
	if err := c.Validate(l.arity, r.arity); err != nil {
		panic("plan: " + err.Error())
	}
	return &Node{Kind: k, Cond: append(ra.Cond(nil), c...), Kids: []*Node{l, r}, arity: l.arity}
}

// NGamma builds γ_{cols, count(countCol)}(E); countCol 0 counts
// tuples.
func NGamma(groupCols []int, countCol int, e *Node) *Node {
	for _, c := range groupCols {
		if c < 1 || c > e.arity {
			panic(fmt.Sprintf("plan: group column %d out of range 1..%d", c, e.arity))
		}
	}
	if countCol < 0 || countCol > e.arity {
		panic(fmt.Sprintf("plan: count column %d out of range 0..%d", countCol, e.arity))
	}
	return &Node{Kind: KGamma, Cols: append([]int(nil), groupCols...), CountCol: countCol,
		Kids: []*Node{e}, arity: len(groupCols) + 1}
}

// String renders the node in the algebras' shared text syntax
// (extended with semijoin/antijoin/gamma forms).
func (n *Node) String() string {
	switch n.Kind {
	case KRel:
		return n.Name
	case KUnion:
		return fmt.Sprintf("union(%s, %s)", n.Kids[0], n.Kids[1])
	case KDiff:
		return fmt.Sprintf("diff(%s, %s)", n.Kids[0], n.Kids[1])
	case KProject:
		return fmt.Sprintf("project[%s](%s)", joinInts(n.Cols), n.Kids[0])
	case KSelect:
		return fmt.Sprintf("select[%d%s%d](%s)", n.I, n.Op, n.J, n.Kids[0])
	case KSelectConst:
		return fmt.Sprintf("selectc[%d='%v'](%s)", n.I, n.C, n.Kids[0])
	case KConstTag:
		return fmt.Sprintf("tag['%v'](%s)", n.C, n.Kids[0])
	case KJoin:
		return fmt.Sprintf("join[%s](%s, %s)", n.Cond, n.Kids[0], n.Kids[1])
	case KSemijoin:
		return fmt.Sprintf("semijoin[%s](%s, %s)", n.Cond, n.Kids[0], n.Kids[1])
	case KAntijoin:
		return fmt.Sprintf("antijoin[%s](%s, %s)", n.Cond, n.Kids[0], n.Kids[1])
	case KGamma:
		count := "*"
		if n.CountCol > 0 {
			count = fmt.Sprint(n.CountCol)
		}
		return fmt.Sprintf("gamma[%s;count(%s)](%s)", joinInts(n.Cols), count, n.Kids[0])
	}
	panic(fmt.Sprintf("plan: unknown kind %d", n.Kind))
}

func joinInts(xs []int) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprint(x)
	}
	return strings.Join(parts, ",")
}

// Walk visits n and all subplans in preorder. Shared subtrees are
// visited once per occurrence, matching how the executor runs them.
func Walk(n *Node, visit func(*Node)) {
	visit(n)
	for _, k := range n.Kids {
		Walk(k, visit)
	}
}

// Equal reports structural equality of two plans.
func Equal(a, b *Node) bool {
	if a == b {
		return true
	}
	if a == nil || b == nil || a.Kind != b.Kind || a.arity != b.arity {
		return false
	}
	if a.Name != b.Name || a.I != b.I || a.Op != b.Op || a.J != b.J || a.CountCol != b.CountCol {
		return false
	}
	if !a.C.Equal(b.C) {
		return false
	}
	if len(a.Cols) != len(b.Cols) || len(a.Cond) != len(b.Cond) || len(a.Kids) != len(b.Kids) {
		return false
	}
	for i := range a.Cols {
		if a.Cols[i] != b.Cols[i] {
			return false
		}
	}
	for i := range a.Cond {
		if a.Cond[i] != b.Cond[i] {
			return false
		}
	}
	for i := range a.Kids {
		if !Equal(a.Kids[i], b.Kids[i]) {
			return false
		}
	}
	return true
}
