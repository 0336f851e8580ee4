package main

// Input generation. Everything the program under test receives is
// text made here from the seed: a database in rel's text format and
// query texts in the parser's syntax. Equal seeds give byte-identical
// texts.

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"strconv"

	"radiv/internal/ra"
	"radiv/internal/sa"
	"radiv/internal/workload"
)

// divisionQuery is the classical RA containment division
// π1(R) − π1((π1(R) × S) − R), which the planner rewrites into the
// Section 5 γ-division.
const divisionQuery = "diff(project[1](R), project[1](diff(join[true](project[1](R), S), R)))"

// bulkDivision is the divide-bulk (and ingest-divide preload)
// database: about 1.63M R tuples over 10⁵ groups and an 8-tuple S.
func bulkDivision(seed int64) workload.Division {
	return workload.Division{
		Groups:        100000,
		GroupSize:     10,
		Dist:          workload.Uniform,
		DivisorSize:   8,
		MatchFraction: 0.1,
		Seed:          seed,
	}
}

// divisionText renders a division workload as database text, tuples
// in generation order.
func divisionText(w workload.Division) []byte {
	r, s := w.Generate()
	var b bytes.Buffer
	b.Grow(14 * (r.Len() + s.Len()))
	b.WriteString("@R 2\n@S 1\n")
	for _, t := range r.Tuples() {
		b.WriteString("R ")
		b.WriteString(strconv.FormatInt(t[0].AsInt(), 10))
		b.WriteByte(',')
		b.WriteString(strconv.FormatInt(t[1].AsInt(), 10))
		b.WriteByte('\n')
	}
	for _, t := range s.Tuples() {
		b.WriteString("S ")
		b.WriteString(strconv.FormatInt(t[0].AsInt(), 10))
		b.WriteByte('\n')
	}
	return b.Bytes()
}

// Sizes of the adhoc-small store. Every beer is liked exactly
// adhocLikes/adhocBeers times and served exactly adhocServes/adhocBeers
// times, so the Likes ⋈ Serves join on beer emits close to 5·3·600 =
// 9000 rows whatever the seed.
const (
	adhocLikes    = 3000
	adhocServes   = 1800
	adhocVisits   = 3000
	adhocDrinkers = 400
	adhocBars     = 150
	adhocBeers    = 600
	// The set-valued relations: R groups over a small element domain,
	// S a 3-element divisor, T the sets R is containment-joined with.
	adhocRGroups  = 60
	adhocTGroups  = 25
	adhocElements = 12
	// adhocBlocks is the length of the generated query sequence in
	// blocks; each block holds every template once, in a seeded order.
	// The closed loop cycles through the sequence.
	adhocBlocks = 360
	// adhocConsts is how many distinct constants a template draws
	// from, which bounds the number of distinct query texts.
	adhocConsts = 40
)

// Value ranges keep the entity kinds disjoint.
const (
	drinkerBase = 0
	barBase     = 10000
	beerBase    = 20000
	groupBase   = 30000
	setBase     = 40000
	elemBase    = 50000
)

// adhocText generates the adhoc-small database: the paper's
// beer-drinker schema (Example 3) plus small set-valued relations
// R(A,B), S(B) and T(C,D) for division and set-containment joins.
func adhocText(seed int64) []byte {
	rng := rand.New(rand.NewSource(seed))
	var b bytes.Buffer
	b.WriteString("@Likes 2\n@Serves 2\n@Visits 2\n@R 2\n@S 1\n@T 2\n")
	// pairs writes n tuples whose first value is random and whose
	// second cycles through the bN values of its range.
	pairs := func(name string, n, aBase, aN, bBase, bN int) {
		for i := 0; i < n; i++ {
			fmt.Fprintf(&b, "%s %d,%d\n", name, aBase+rng.Intn(aN), bBase+i%bN)
		}
	}
	pairs("Likes", adhocLikes, drinkerBase, adhocDrinkers, beerBase, adhocBeers)
	pairs("Serves", adhocServes, barBase, adhocBars, beerBase, adhocBeers)
	pairs("Visits", adhocVisits, drinkerBase, adhocDrinkers, barBase, adhocBars)
	for i := 0; i < 3; i++ {
		fmt.Fprintf(&b, "S %d\n", elemBase+i)
	}
	for g := 0; g < adhocRGroups; g++ {
		// A third of the groups hold the whole divisor.
		if rng.Intn(3) == 0 {
			for i := 0; i < 3; i++ {
				fmt.Fprintf(&b, "R %d,%d\n", groupBase+g, elemBase+i)
			}
		}
		for i, n := 0, 2+rng.Intn(5); i < n; i++ {
			fmt.Fprintf(&b, "R %d,%d\n", groupBase+g, elemBase+rng.Intn(adhocElements))
		}
	}
	for g := 0; g < adhocTGroups; g++ {
		for i, n := 0, 1+rng.Intn(3); i < n; i++ {
			fmt.Fprintf(&b, "T %d,%d\n", setBase+g, elemBase+rng.Intn(adhocElements))
		}
	}
	return b.Bytes()
}

// query is one generated query text.
type query struct {
	// template names the generating template.
	template string
	// text is the query in the parser's syntax.
	text string
	// sa marks semijoin-algebra text (parser.ParseSA, then sa.ToRA).
	sa bool
}

// template renders one query from a constant index.
type template struct {
	name string
	sa   bool
	text func(c int) string
}

// adhocTemplates are the adhoc-small query shapes: RA selections,
// joins, unions and differences; SA semijoin and antijoin chains and
// the lousy-bar query; tiny division and set-containment joins; and an
// RA semijoin idiom under a join, which the planner runs on its mixed
// executor. Constants pick drinkers and bars.
var adhocTemplates = []template{
	{"select", false, func(c int) string {
		return fmt.Sprintf("selectc[1='%d'](Likes)", drinker(c))
	}},
	{"join-const", false, func(c int) string {
		return fmt.Sprintf("project[4](join[2=1](selectc[1='%d'](Visits), Serves))", drinker(c))
	}},
	{"join-wide", false, func(c int) string {
		if c%2 == 0 {
			return "join[2=2](Likes, Serves)"
		}
		return "project[1,3](join[2=2](Likes, Serves))"
	}},
	{"union", false, func(c int) string {
		return fmt.Sprintf("union(selectc[1='%d'](Likes), selectc[1='%d'](Likes))", drinker(c), drinker(c+1))
	}},
	{"diff", false, func(c int) string {
		return fmt.Sprintf("diff(project[1](Visits), project[1](selectc[2='%d'](Visits)))", bar(c))
	}},
	{"semijoin-chain", true, func(c int) string {
		return fmt.Sprintf("project[1](semijoin[2=1](Visits, semijoin[2=2](Serves, selectc[1='%d'](Likes))))", drinker(c))
	}},
	{"antijoin", true, func(c int) string {
		return fmt.Sprintf("antijoin[2=1](selectc[1='%d'](Visits), semijoin[2=2](Serves, Likes))", drinker(c))
	}},
	{"lousy-bar", true, func(c int) string {
		if c%2 == 0 {
			return sa.LousyBarExpr().String()
		}
		return fmt.Sprintf("project[1](semijoin[2=1](selectc[1='%d'](Visits), diff(project[1](Serves), project[1](semijoin[2=2](Serves, Likes)))))", drinker(c))
	}},
	{"division", false, func(int) string { return divisionQuery }},
	{"containment-join", false, func(int) string { return ra.SetContainmentJoinExpr("R", "T").String() }},
	{"semijoin-join", false, func(c int) string {
		return fmt.Sprintf("join[2=1](project[1,2](join[2=1](selectc[1='%d'](Visits), project[1](Serves))), Serves)", drinker(c))
	}},
}

func drinker(c int) int { return drinkerBase + c*adhocDrinkers/adhocConsts }
func bar(c int) int     { return barBase + c*adhocBars/adhocConsts }

// adhocQueryTexts draws the adhoc-small query sequence.
func adhocQueryTexts(seed int64) []query {
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	qs := make([]query, 0, adhocBlocks*len(adhocTemplates))
	for len(qs) < cap(qs) {
		for _, k := range rng.Perm(len(adhocTemplates)) {
			t := adhocTemplates[k]
			qs = append(qs, query{template: t.name, text: t.text(rng.Intn(adhocConsts)), sa: t.sa})
		}
	}
	return qs
}

// distinct returns the distinct queries of a sequence in sorted text
// order.
func distinct(qs []query) []query {
	seen := map[string]bool{}
	var out []query
	for _, q := range qs {
		if !seen[q.text] {
			seen[q.text] = true
			out = append(out, q)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].text < out[j].text })
	return out
}

// Ingest batches. Each write batch adds ingestGroups new groups of
// exactly ingestGroupSize distinct tuples; a group built to contain
// the divisor holds every S value, the others all but one.
const (
	ingestGroups    = 100
	ingestGroupSize = 10
	ingestContain   = 0.3
	// ingestReads is how many times each round runs the division query
	// on the snapshot it published: about a hundred queries per run,
	// enough for a p90 with ten samples beyond it.
	ingestReads = 10
)

// ingestGen generates the ingest-divide write batches in order.
type ingestGen struct {
	rng     *rand.Rand
	divisor []int64
	domain  int
	next    int64 // first unused group ID
}

func newIngestGen(seed int64, w workload.Division, divisor []int64) *ingestGen {
	return &ingestGen{
		rng:     rand.New(rand.NewSource(seed ^ 0x1e57)),
		divisor: divisor,
		domain:  4 * (w.GroupSize + w.DivisorSize + 1), // workload.Division's default
		next:    int64(w.Groups),
	}
}

// batch returns the next write batch as database text, and the new
// groups that contain the divisor, in increasing order.
func (g *ingestGen) batch() (text []byte, contain []int64) {
	var b bytes.Buffer
	b.WriteString("@R 2\n")
	for i := 0; i < ingestGroups; i++ {
		a := g.next
		g.next++
		members := append([]int64(nil), g.divisor...)
		if g.rng.Float64() < ingestContain {
			contain = append(contain, a)
		} else {
			drop := g.rng.Intn(len(members))
			members = append(members[:drop], members[drop+1:]...)
		}
		seen := map[int64]bool{}
		for _, v := range members {
			seen[v] = true
		}
		for len(members) < ingestGroupSize {
			v := int64(g.rng.Intn(g.domain))
			if !seen[v] {
				seen[v] = true
				members = append(members, v)
			}
		}
		for _, v := range members {
			fmt.Fprintf(&b, "R %d,%d\n", a, v)
		}
	}
	return b.Bytes(), contain
}
