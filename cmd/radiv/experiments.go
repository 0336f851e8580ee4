package main

import (
	"fmt"
	"io"
	"testing"
	"time"

	"radiv/internal/bisim"
	"radiv/internal/core"
	"radiv/internal/division"
	"radiv/internal/engine"
	"radiv/internal/gf"
	"radiv/internal/paperfigs"
	"radiv/internal/plan"
	"radiv/internal/ra"
	"radiv/internal/rel"
	"radiv/internal/sa"
	"radiv/internal/setjoin"
	"radiv/internal/shard"
	"radiv/internal/stats"
	"radiv/internal/translate"
	"radiv/internal/workload"
	"radiv/internal/xra"
)

// sameEmission reports byte-identity of two tuple sequences: same
// length, same tuples, same order — the check the streamed/sharded
// equivalence experiments (ST2, ST3) make against their sequential
// references.
func sameEmission(got, want []rel.Tuple) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		if !got[i].Equal(want[i]) {
			return false
		}
	}
	return true
}

// experiment is one reproducible unit: a figure, example or claim.
type experiment struct {
	ID    string
	Title string
	Run   func(w io.Writer)
}

// workers is the -workers flag: the pool size handed to the parallel
// algorithm variants swept by P26, SJ1 and SJ2 (0 = one per CPU).
var workers int

// shards is the -shards flag: the shard count ST3 partitions its
// stores into (0 = sweep 1, 2, 4).
var shards int

// batchSize is the -batch flag: the batch row capacity the batch-size
// sweeps run at (0 = the default sweep).
var batchSize int

// batchSizes is the batch-capacity sweep every batch-size experiment
// shares (ST4 and ST6 use one knob): the -batch flag pins a single
// size; the default sweeps 1 — pricing the batch machinery with none
// of its amortization — then 64 and 1024 (rel.BatchCap).
func batchSizes() []int {
	if batchSize > 0 {
		return []int{batchSize}
	}
	return []int{1, 64, 1024}
}

func experiments() []experiment {
	return []experiment{
		{"F1", "Fig. 1: set-containment join and division on the medical example", runF1},
		{"F2", "Fig. 2: C-stored tuples (Example 5)", runF2},
		{"F3", "Fig. 3: guarded bisimulation (Example 12)", runF3},
		{"F4", "Fig. 4: Lemma 24 pumping — |Dn| linear, |E(Dn)| quadratic", runF4},
		{"F5", "Fig. 5: division is not expressible in SA= (Proposition 26)", runF5},
		{"F6", "Fig. 6: the cyclic beer query is not in SA= (Section 4.1)", runF6},
		{"E3", "Examples 3 and 7: the lousy-bar query in SA= and GF", runE3},
		{"T8", "Theorem 8: SA= ↔ GF differential check", runT8},
		{"T17", "Theorem 17: the linear/quadratic dichotomy, measured", runT17},
		{"P26", "Proposition 26: division cost — RA expression vs direct algorithms", runP26},
		{"SJ1", "Set-containment join algorithms", runSJ1},
		{"SJ2", "Set-equality join algorithms", runSJ2},
		{"G5", "Section 5: linear division with grouping and counting", runG5},
		{"ST1", "Streaming executor: resident vs intermediate on the division expression", runST1},
		{"ST2", "Streamed SA/XRA: linear resident memory; cursor-fed parallel division", runST2},
		{"ST3", "Sharded stores: shard-local division and set joins, per-shard resident memory, merge cost", runST3},
		{"ST4", "Streaming executor batch-size sweep: throughput and allocs against batch 1", runST4},
		{"ST5", "Query planner: automatic linearization — division flow exponent 2 → 1, identical results", runST5},
		{"ST6", "Streamed semijoin algebras: workers × batch sweep, exchange overhead vs worker compute", runST6},
	}
}

func runF1(w io.Writer) {
	d := paperfigs.Fig1()
	fmt.Fprintln(w, d)
	div := ra.Eval(ra.DivisionExpr("Person", "Symptoms"), d)
	fmt.Fprintf(w, "Person ÷ Symptoms:\n%s\n", div)
	person := setjoin.Groups(d.Rel("Person"))
	disease := setjoin.Groups(d.Rel("Disease"))
	sj, _ := setjoin.InvertedIndexContainment{}.Join(person, disease)
	fmt.Fprintf(w, "Person ⋈[Symptom⊇Symptom] Disease:\n%s", sj)
}

func runF2(w io.Writer) {
	d := paperfigs.Fig2()
	c := rel.Consts(rel.Str("a"))
	fmt.Fprintln(w, d)
	t := stats.NewTable("tuple", "C-stored (C = {a})")
	for _, tup := range []rel.Tuple{rel.Strs("b", "c"), rel.Strs("a", "f"), rel.Strs("e", "c"), rel.Strs("g")} {
		t.AddRow(tup.String(), rel.IsCStored(d, c, tup))
	}
	fmt.Fprint(w, t)
}

func runF3(w io.Writer) {
	a, b := paperfigs.Fig3()
	ch := bisim.NewChecker(a, b, rel.Consts())
	max := ch.MaximalBisimulation()
	fmt.Fprintf(w, "maximal guarded bisimulation has %d partial isomorphisms\n", len(max))
	t := stats.NewTable("pair", "bisimilar")
	t.AddRow("A,(1,2) vs B,(6,7)", ch.Bisimilar(rel.Ints(1, 2), rel.Ints(6, 7)))
	t.AddRow("A,(1,2) vs B,(9,10)", ch.Bisimilar(rel.Ints(1, 2), rel.Ints(9, 10)))
	t.AddRow("A,(1,2) vs B,(7,8)", ch.Bisimilar(rel.Ints(1, 2), rel.Ints(7, 8)))
	fmt.Fprint(w, t)
}

func runF4(w io.Writer) {
	d, e := paperfigs.Fig4()
	witness := core.FindWitnessAt(e, d)
	fmt.Fprintf(w, "expression: %s\nwitness: %s\n\n", e, witness)
	p, err := core.NewPump(witness)
	if err != nil {
		fmt.Fprintf(w, "pump error: %v\n", err)
		return
	}
	fmt.Fprintf(w, "D2 (the figure's second database, canonical labels):\n%s\n", p.Database(2))
	t := stats.NewTable("n", "|Dn|", "c*n (c=2|D|)", "|E(Dn)|", "n^2")
	for _, pt := range p.Measure([]int{1, 2, 4, 8, 16, 32}) {
		t.AddRow(pt.N, pt.DatabaseSize, 2*d.Size()*pt.N, pt.JoinOutput, pt.N*pt.N)
	}
	fmt.Fprint(w, t)
}

func runF5(w io.Writer) {
	a, b := paperfigs.Fig5()
	ch := bisim.NewChecker(a, b, rel.Consts())
	fmt.Fprintf(w, "A,1 ~C B,1: %v\n", ch.Bisimilar(rel.Ints(1), rel.Ints(1)))
	divA := division.Reference(a.Rel("R"), a.Rel("S"), division.Containment)
	divB := division.Reference(b.Rel("R"), b.Rel("S"), division.Containment)
	fmt.Fprintf(w, "R ÷ S on A: %v (size %d)\n", divA.Sorted(), divA.Len())
	fmt.Fprintf(w, "R ÷ S on B: %v (size %d)\n", divB.Sorted(), divB.Len())
	fmt.Fprintln(w, "⇒ any SA= expression agreeing on A,1 also returns 1 on B: division ∉ SA=,")
	fmt.Fprintln(w, "  and by Theorem 18 every RA expression for division is quadratic.")
}

func runF6(w io.Writer) {
	a, b := paperfigs.Fig6()
	ch := bisim.NewChecker(a, b, rel.Consts())
	fmt.Fprintf(w, "(A, alex) ~C (B, alex): %v\n", ch.Bisimilar(rel.Strs("alex"), rel.Strs("alex")))
	fmt.Fprintln(w, "query Q: drinkers visiting a bar serving a beer they like")
	fmt.Fprintln(w, "Q(A) = {alex}, Q(B) = ∅ ⇒ Q ∉ SA= ⇒ Q needs quadratic RA expressions.")
}

func runE3(w io.Writer) {
	d := paperfigs.Example3()
	e := sa.LousyBarExpr()
	f := gf.LousyBarFormula()
	fmt.Fprintf(w, "SA= expression: %s\nGF formula:     %s\n\n", e, f)
	fromSA := sa.Eval(e, d)
	fromGF := gf.Answers(f, d, rel.Consts(), []gf.Var{"x"})
	fmt.Fprintf(w, "SA= answer: %vGF answer:  %v", fromSA, fromGF)
}

func runT8(w io.Writer) {
	schema := rel.NewSchema(map[string]int{"Likes": 2, "Serves": 2, "Visits": 2})
	exprs := []sa.Expr{
		sa.LousyBarExpr(),
		sa.NewSemijoin(sa.R("Visits", 2), ra.Eq(2, 1), sa.R("Serves", 2)),
		sa.NewAntijoin(sa.R("Likes", 2), ra.Eq(2, 2), sa.R("Serves", 2)),
		sa.NewProject([]int{2}, sa.R("Likes", 2)),
	}
	t := stats.NewTable("SA= expression", "databases", "agree")
	for _, e := range exprs {
		f, vars, err := translate.ToGF(e, schema)
		if err != nil {
			t.AddRow(e.String(), 0, "error: "+err.Error())
			continue
		}
		agree := 0
		const trials = 12
		for seed := int64(0); seed < trials; seed++ {
			d := workload.BeerDatabase(seed, 3+int(seed)%6, 4)
			if sa.Eval(e, d).Equal(gf.Answers(f, d, rel.Consts(), vars)) {
				agree++
			}
		}
		t.AddRow(e.String(), trials, fmt.Sprintf("%d/%d", agree, trials))
	}
	fmt.Fprint(w, t)
}

func runT17(w io.Writer) {
	gen := func(scale int) *rel.Database {
		d := rel.NewDatabase(rel.NewSchema(map[string]int{"R": 2, "S": 1}))
		for i := 0; i < scale; i++ {
			d.AddInts("R", int64(i), int64(i%7))
			d.AddInts("S", int64(3*i))
		}
		return d
	}
	cases := []struct {
		name string
		e    ra.Expr
	}{
		{"semijoin shape R⋉S", ra.EquiSemijoinExpr(ra.R("R", 2), ra.Eq(2, 1), ra.R("S", 1))},
		{"union/diff/select", ra.NewDiff(ra.R("R", 2), ra.NewSelect(1, ra.OpLt, 2, ra.R("R", 2)))},
		{"product R×S", ra.Product(ra.R("R", 2), ra.R("S", 1))},
		{"division expression", ra.DivisionExpr("R", "S")},
	}
	t := stats.NewTable("expression", "classifier", "measured exponent")
	for _, c := range cases {
		v, err := core.Classify(c.e, nil)
		verdict := "error"
		if err == nil {
			verdict = v.Class.String()
		}
		p := ra.GrowthExponent(ra.Profile(c.e, gen, []int{16, 32, 64, 128, 256}))
		t.AddRow(c.name, verdict, p)
	}
	fmt.Fprint(w, t)
	fmt.Fprintln(w, "\nexponents cluster at ≤1 or ≥2: no expression lives in between (Theorem 17)")
}

// divisionScaling builds the scaling family used by P26 and G5: n
// groups with small B-sets and a divisor whose size grows with n, so
// the quadratic intermediate π1(R) × S of the classical expression is
// visible (with a fixed-size divisor every algorithm looks linear).
func divisionScaling(n int) (*rel.Relation, *rel.Relation) {
	r := rel.NewRelation(2)
	for i := 0; i < n; i++ {
		r.Add(rel.Ints(int64(i), int64(i%9)))
		r.Add(rel.Ints(int64(i), int64((i+3)%9)))
	}
	s := rel.NewRelation(1)
	for i := 0; i < n/4; i++ {
		s.Add(rel.Ints(int64(100 + i)))
	}
	return r, s
}

func runP26(w io.Writer) {
	t := stats.NewTable("n", "algorithm", "time", "max memory tuples", "comparisons+probes")
	for _, n := range []int{200, 400, 800} {
		r, s := divisionScaling(n)
		for _, alg := range division.AllWorkers(workers) {
			start := time.Now()
			_, st := alg.Divide(r, s, division.Containment)
			t.AddRow(r.Len()+s.Len(), alg.Name(), time.Since(start).Round(time.Microsecond),
				st.MaxMemoryTuples, st.Comparisons+st.Probes)
		}
	}
	fmt.Fprint(w, t)
	fmt.Fprintln(w, "\nclassic-ra's memory column grows quadratically; hash/aggregate stay linear")
	fmt.Fprintln(w, "and merge-sort stays n·log n (footnote 1 of the paper); streamed-ra runs the")
	fmt.Fprintln(w, "same quadratic expression but holds only linear state (see ST1)")
}

// runST1 evaluates the classical division expression with both
// executors on the P26 scaling family and contrasts the two memory
// observables: the materialized evaluator's max intermediate (what
// pure RA must compute, quadratic by Proposition 26) against the
// streaming executor's max resident (what a pipelined executor must
// hold, which stays linear — the product flows but is never stored).
func runST1(w io.Writer) {
	e := ra.DivisionExpr("R", "S")
	t := stats.NewTable("n", "|D|", "max intermediate", "streamed flow max", "max resident")
	var interPts, resPts []ra.SizePoint
	for _, n := range []int{100, 200, 400, 800} {
		r, s := divisionScaling(n)
		d := rel.NewDatabase(rel.NewSchema(map[string]int{"R": 2, "S": 1}))
		for _, tp := range r.Tuples() {
			d.Add("R", tp)
		}
		for _, tp := range s.Tuples() {
			d.Add("S", tp)
		}
		mat, mt := ra.EvalTraced(e, d)
		str, st := ra.EvalVectorized(nil, e, d, 0)
		if !mat.Equal(str) {
			fmt.Fprintln(w, "!! streamed result diverges from materialized")
			return
		}
		t.AddRow(n, d.Size(), mt.MaxIntermediate, st.MaxIntermediate, st.MaxResident)
		interPts = append(interPts, ra.SizePoint{DatabaseSize: d.Size(), MaxIntermediate: mt.MaxIntermediate})
		// GrowthExponent fits whatever sits in the MaxIntermediate
		// field against DatabaseSize; here the fitted quantity is the
		// resident peak.
		resPts = append(resPts, ra.SizePoint{DatabaseSize: d.Size(), MaxIntermediate: st.MaxResident})
	}
	fmt.Fprint(w, t)
	fmt.Fprintf(w, "\ngrowth exponents: intermediate %.2f, resident %.2f\n",
		ra.GrowthExponent(interPts), ra.GrowthExponent(resPts))
	fmt.Fprintln(w, "pipelining cannot cut the flow (Proposition 26) but cuts what is held")
}

// runST2 is ST1's counterpart for the linear algebras: on the P26
// scaling family it evaluates the SA expressions the division family
// admits (division itself is out of SA's reach, Proposition 26 — the
// semijoin/antijoin shapes are its linear core) and the Section 5
// γ-division expression with both executors, and fits the streamed
// executors' resident peaks against the database size. SA is linear
// on both axes — flow and resident — and γ-division keeps its resident
// linear too, completing the streaming story ST1 started for pure RA,
// where only the resident side is linear. The experiment also drives
// the cursor-fed parallel division (division.ParallelHash.DivideStream
// at the -workers count) from a relation cursor and checks it emits
// the sequential Hash sequence byte for byte.
func runST2(w io.Writer) {
	saExpr := sa.NewProject([]int{1}, sa.NewAntijoin(sa.R("R", 2), ra.Eq(2, 1), sa.R("S", 1)))
	xraExpr := xra.ContainmentDivision("R", "S")
	t := stats.NewTable("n", "|D|", "SA max intermediate", "SA max resident", "γ max intermediate", "γ max resident")
	var saRes, xraRes []ra.SizePoint
	for _, n := range []int{100, 200, 400, 800} {
		r, s := divisionScaling(n)
		d := rel.NewDatabase(rel.NewSchema(map[string]int{"R": 2, "S": 1}))
		for _, tp := range r.Tuples() {
			d.Add("R", tp)
		}
		for _, tp := range s.Tuples() {
			d.Add("S", tp)
		}
		saMat, saT := sa.EvalTraced(saExpr, d)
		saStr, saS := sa.EvalVectorized(nil, saExpr, d, 0)
		xMat, xT := xra.EvalTraced(xraExpr, d)
		xStr, xS := xra.EvalVectorized(nil, xraExpr, d, 0)
		if !saMat.Equal(saStr) || !xMat.Equal(xStr) {
			fmt.Fprintln(w, "!! streamed result diverges from materialized")
			return
		}
		want, _ := division.Hash{}.Divide(r, s, division.Containment)
		cur := division.ParallelHash{Workers: workers}.DivideStream(nil, r.Cursor(), s, division.Containment)
		// Drain fully before comparing: the cursor contract requires
		// exhaustion, or the exchange goroutines stay blocked.
		var got []rel.Tuple
		for tp, ok := cur.Next(); ok; tp, ok = cur.Next() {
			got = append(got, tp)
		}
		if !sameEmission(got, want.Tuples()) {
			fmt.Fprintln(w, "!! cursor-fed parallel division diverges from sequential hash")
			return
		}
		t.AddRow(n, d.Size(), saT.MaxIntermediate, saS.MaxResident, xT.MaxIntermediate, xS.MaxResident)
		// GrowthExponent fits the MaxIntermediate field; carry the
		// resident peaks there, as ST1 does.
		saRes = append(saRes, ra.SizePoint{DatabaseSize: d.Size(), MaxIntermediate: saS.MaxResident})
		xraRes = append(xraRes, ra.SizePoint{DatabaseSize: d.Size(), MaxIntermediate: xS.MaxResident})
	}
	fmt.Fprint(w, t)
	fmt.Fprintf(w, "\nresident growth exponents: SA %.2f, γ-division %.2f (both ≈ 1: linear)\n",
		ra.GrowthExponent(saRes), ra.GrowthExponent(xraRes))
	fmt.Fprintln(w, "cursor-fed parallel division matched the sequential emission byte for byte")
}

// runST3 measures the sharded storage layer on the P26 scaling family
// and a set-join workload: a shard.Database is loaded at each shard
// count, division and both set joins run shard-locally
// (engine.StreamShardedBatches workers over shard-local batch scans, broadcast
// divisor/S side), and the table reports the per-shard resident peak
// (max and sum over shards) next to the merge's entry count and wall
// time. Every sharded result is checked byte for byte against the
// sequential algorithm on the merged relations — the equivalence the
// shard test suite proves on randomized workloads, demonstrated here
// on the benchmark family. The -shards flag pins one shard count;
// by default the sweep is 1 (delegation), 2 and 4.
func runST3(w io.Writer) {
	counts := []int{1, 2, 4}
	if shards > 0 {
		counts = []int{shards}
	}
	maxSum := func(xs []int) (mx, sum int) {
		for _, x := range xs {
			if x > mx {
				mx = x
			}
			sum += x
		}
		return mx, sum
	}
	t := stats.NewTable("op", "n", "shards", "time", "shard resident max/sum", "merge entries", "merge time")
	for _, n := range []int{200, 400, 800} {
		r, s := divisionScaling(n)
		d := rel.NewDatabase(rel.NewSchema(map[string]int{"R": 2, "S": 1}))
		for _, tp := range r.Tuples() {
			d.Add("R", tp)
		}
		for _, tp := range s.Tuples() {
			d.Add("S", tp)
		}
		want, _ := division.Hash{}.Divide(r, s, division.Containment)
		for _, sc := range counts {
			sdb := shard.FromStore(d, sc)
			start := time.Now()
			got, st := shard.Divide(sdb, "R", "S", division.Containment, workers)
			total := time.Since(start)
			if !sameEmission(got.Tuples(), want.Tuples()) {
				fmt.Fprintln(w, "!! sharded division diverges from sequential hash")
				return
			}
			mx, sum := maxSum(st.ShardResident)
			t.AddRow("divide", n, sc, total.Round(time.Microsecond),
				fmt.Sprintf("%d/%d", mx, sum), st.Merged, st.MergeTime.Round(time.Microsecond))
		}
	}
	wl := workload.SetJoin{RGroups: 300, SGroups: 300, MeanSize: 5, Dist: workload.Uniform,
		Domain: 60, ContainFraction: 0.1, Seed: 11}
	rRel, sRel := wl.Generate()
	d := rel.NewDatabase(rel.NewSchema(map[string]int{"R": 2, "S": 2}))
	for _, tp := range rRel.Tuples() {
		d.Add("R", tp)
	}
	for _, tp := range sRel.Tuples() {
		d.Add("S", tp)
	}
	rG, sG := setjoin.Groups(d.Rel("R")), setjoin.Groups(d.Rel("S"))
	wantC, _ := setjoin.SignatureContainment{}.Join(rG, sG)
	wantE, _ := setjoin.HashEquality{}.Join(rG, sG)
	for _, sc := range counts {
		sdb := shard.FromStore(d, sc)
		start := time.Now()
		gotC, stC := shard.ContainmentJoin(sdb, "R", "S", workers)
		tC := time.Since(start)
		start = time.Now()
		gotE, stE := shard.EqualityJoin(sdb, "R", "S", workers)
		tE := time.Since(start)
		if !sameEmission(gotC.Tuples(), wantC.Tuples()) || !sameEmission(gotE.Tuples(), wantE.Tuples()) {
			fmt.Fprintln(w, "!! sharded set join diverges from sequential")
			return
		}
		mxC, sumC := maxSum(stC.ShardResident)
		mxE, sumE := maxSum(stE.ShardResident)
		t.AddRow("contain-join", wl.RGroups, sc, tC.Round(time.Microsecond),
			fmt.Sprintf("%d/%d", mxC, sumC), stC.Merged, stC.MergeTime.Round(time.Microsecond))
		t.AddRow("equal-join", wl.RGroups, sc, tE.Round(time.Microsecond),
			fmt.Sprintf("%d/%d", mxE, sumE), stE.Merged, stE.MergeTime.Round(time.Microsecond))
	}
	fmt.Fprint(w, t)
	fmt.Fprintln(w, "\nevery sharded run matched the single-store emission byte for byte; the")
	fmt.Fprintln(w, "per-shard resident column divides by the shard count while the sum stays")
	fmt.Fprintln(w, "flat — each shard holds only its own groups (plus the broadcast divisor)")
}

// runST4 sweeps the streaming executor's batch size on the
// BenchmarkStreamedDivision-scale division family and on a pipelined
// select→project→join plan. Batch 1 is the baseline: it prices the
// batch machinery with none of its amortization, so the speedup and
// alloc-ratio columns show what batching buys. Every batch size must
// emit byte-identically to batch 1 and report the same resident peak
// (operator state is accounted per row, not per batch), and the pooled
// batch footprint is reported separately: batches are recycled
// transport, not resident operator state. The timings are single
// testing.Benchmark runs, a smoke-level reading rather than a gated
// measurement.
func runST4(w io.Writer) {
	bench := func(f func()) (time.Duration, float64) {
		r := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				f()
			}
		})
		return time.Duration(r.NsPerOp()), float64(r.AllocsPerOp())
	}
	r, s := divisionScaling(400)
	d := rel.NewDatabase(rel.NewSchema(map[string]int{"R": 2, "S": 1}))
	for _, tp := range r.Tuples() {
		d.Add("R", tp)
	}
	for _, tp := range s.Tuples() {
		d.Add("S", tp)
	}
	div := ra.DivisionExpr("R", "S")
	// The pipelined plan: a selection and a projection feeding an
	// equi-join probe. The workload is flow-dominated: 5000 probe
	// tuples stream through the pipeline, 50 reach the output, so the
	// measurement prices the operators rather than the (shared) result
	// sink.
	dp := rel.NewDatabase(rel.NewSchema(map[string]int{"P": 2, "Q": 2}))
	for i := 0; i < 5000; i++ {
		dp.AddInts("P", int64(i), int64(i%7))
	}
	for j := 0; j < 50; j++ {
		dp.AddInts("Q", int64(100*j), int64(j))
	}
	pipe := ra.NewJoin(
		ra.NewProject([]int{1}, ra.NewSelect(1, ra.OpNe, 2, ra.R("P", 2))),
		ra.Eq(1, 1), ra.R("Q", 2))
	t := stats.NewTable("plan", "batch", "time/op", "allocs/op", "speedup", "alloc ratio")
	for _, pl := range []struct {
		name string
		e    ra.Expr
		d    *rel.Database
	}{{"division", div, d}, {"select→project→join", pipe, dp}} {
		e, d := pl.e, pl.d
		want, wt := ra.EvalVectorized(nil, e, d, 1)
		wantT := want.Tuples()
		baseNs, baseAllocs := bench(func() { ra.EvalVectorized(nil, e, d, 1) })
		t.AddRow(pl.name, 1, baseNs.Round(time.Microsecond), int64(baseAllocs), "1.00x", "1.0x")
		for _, size := range batchSizes() {
			if size == 1 {
				continue
			}
			got, gt := ra.EvalVectorized(nil, e, d, size)
			if !sameEmission(got.Tuples(), wantT) {
				fmt.Fprintf(w, "!! batch %d emission diverges from batch 1\n", size)
				return
			}
			if gt.MaxResident != wt.MaxResident {
				fmt.Fprintf(w, "!! resident accounting diverges: batch %d %d, batch 1 %d\n", size, gt.MaxResident, wt.MaxResident)
				return
			}
			ns, allocs := bench(func() { ra.EvalVectorized(nil, e, d, size) })
			ratio := "—"
			if allocs > 0 {
				ratio = fmt.Sprintf("%.1fx", baseAllocs/allocs)
			}
			t.AddRow(pl.name, size, ns.Round(time.Microsecond), int64(allocs),
				fmt.Sprintf("%.2fx", float64(baseNs)/float64(ns)), ratio)
		}
		fmt.Fprintf(w, "%s: emission byte-identical at every batch size; MaxResident %d at every size\n",
			pl.name, wt.MaxResident)
	}
	rel.ResetBatchPoolPeak()
	ra.EvalVectorized(nil, div, d, 0)
	live, peak, _ := rel.BatchPoolStats()
	fmt.Fprintln(w)
	fmt.Fprint(w, t)
	fmt.Fprintf(w, "\npooled batches: peak %d in flight (≤ %d rows) during division, %d live after —\n",
		peak, peak*int64(rel.BatchCap), live)
	fmt.Fprintln(w, "transport buffers recycle through the pool and never enter MaxResident, so the")
	fmt.Fprintln(w, "ST1–ST3 resident-memory exponents are independent of the batch size")
}

// runST5 drives the planner end to end on the P26 scaling family: the
// classical division expression compiled with and without the rewrite
// rules. As written, the plan streams the expression and its flow peak
// grows quadratically with the database (Proposition 26); optimized,
// the division rule replaces it by the Section 5 γ-expression and the
// same query runs on the xra engine with linear flow. The experiment
// fits both growth exponents and checks the two plans emit
// byte-identical results at every scale — the dichotomy theorem
// applied automatically, not by hand.
func runST5(w io.Writer) {
	e := ra.DivisionExpr("R", "S")
	t := stats.NewTable("n", "|D|", "flow max as written", "flow max optimized", "engine")
	var plainPts, optPts []ra.SizePoint
	var last *plan.Plan
	for _, n := range []int{100, 200, 400, 800} {
		r, s := divisionScaling(n)
		d := rel.NewDatabase(rel.NewSchema(map[string]int{"R": 2, "S": 1}))
		for _, tp := range r.Tuples() {
			d.Add("R", tp)
		}
		for _, tp := range s.Tuples() {
			d.Add("S", tp)
		}
		p0, err := plan.Compile(e, d, plan.Options{})
		if err != nil {
			fmt.Fprintf(w, "!! compile: %v\n", err)
			return
		}
		p1, err := plan.Compile(e, d, plan.Options{Optimize: true})
		if err != nil {
			fmt.Fprintf(w, "!! optimized compile: %v\n", err)
			return
		}
		res0, t0 := p0.ExecuteTraced()
		res1, t1 := p1.ExecuteTraced()
		if !sameEmission(res1.Tuples(), res0.Tuples()) {
			fmt.Fprintln(w, "!! optimized result diverges from the expression as written")
			return
		}
		t.AddRow(n, d.Size(), t0.MaxIntermediate, t1.MaxIntermediate, string(p1.Engine()))
		plainPts = append(plainPts, ra.SizePoint{DatabaseSize: d.Size(), MaxIntermediate: t0.MaxIntermediate})
		optPts = append(optPts, ra.SizePoint{DatabaseSize: d.Size(), MaxIntermediate: t1.MaxIntermediate})
		last = p1
	}
	fmt.Fprint(w, t)
	for _, f := range last.Firings() {
		fmt.Fprintf(w, "\nrule fired: %s: %s", f.Rule, f.Note)
	}
	fmt.Fprintf(w, "\nflow growth exponents: as written %.2f, optimized %.2f\n",
		ra.GrowthExponent(plainPts), ra.GrowthExponent(optPts))
	fmt.Fprintln(w, "results byte-identical at every scale; the planner turns the quadratic")
	fmt.Fprintln(w, "expression into the linear γ-division automatically")
}

// tracesMatch reports whether two traces agree on shape: the same
// steps in the same order — operator and flow count — and the same
// resident peak. Changing the batch size must not change any of them:
// batching is transport, not semantics.
func tracesMatch(got, want *ra.Trace) bool {
	if len(got.Steps) != len(want.Steps) || got.MaxResident != want.MaxResident {
		return false
	}
	for i := range want.Steps {
		if got.Steps[i].Size != want.Steps[i].Size ||
			got.Steps[i].Expr.String() != want.Steps[i].Expr.String() {
			return false
		}
	}
	return true
}

// runST6 sweeps the streamed semijoin algebras across worker counts
// and batch sizes, separating the two costs parallel batched
// execution pays. The compute arm is single-worker by construction:
// the SA and γ executors at each batch size against their batch-1
// baselines, so the batch knob is the only thing moving — guarded by
// byte-identical emission, identical trace shape (step order and
// per-step flow) and identical resident peak. The exchange arm runs
// division sharded four ways, feeding shard-local sized batch scans
// into the batched probe
// (division.DivideShardBatches) over the worker pool at each
// workers × batch point; the gid-ordered merge is timed separately,
// because merge time is pure exchange overhead — paid once, whatever
// the worker count — while the shard compute divides across workers
// and amortizes with batch size. Every merged result is checked byte
// for byte against the sequential hash division, and a planner tail
// pins the mixed executor's emission across batch sizes. -workers and
// -batch pin single points of the sweep. The timings are single
// testing.Benchmark runs, a smoke-level reading rather than a gated
// measurement.
func runST6(w io.Writer) {
	r, s := divisionScaling(400)
	d := rel.NewDatabase(rel.NewSchema(map[string]int{"R": 2, "S": 1}))
	for _, tp := range r.Tuples() {
		d.Add("R", tp)
	}
	for _, tp := range s.Tuples() {
		d.Add("S", tp)
	}
	bench := func(f func()) time.Duration {
		res := testing.Benchmark(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				f()
			}
		})
		return time.Duration(res.NsPerOp())
	}
	liveBefore, _, _ := rel.BatchPoolStats()

	// Compute arm.
	saExpr := sa.NewProject([]int{1}, sa.NewAntijoin(sa.R("R", 2), ra.Eq(2, 1), sa.R("S", 1)))
	xExpr := xra.ContainmentDivision("R", "S")
	saWant, saWT := sa.EvalVectorized(nil, saExpr, d, 1)
	xWant, xWT := xra.EvalVectorized(nil, xExpr, d, 1)
	saBase := bench(func() { sa.EvalVectorized(nil, saExpr, d, 1) })
	xBase := bench(func() { xra.EvalVectorized(nil, xExpr, d, 1) })
	ct := stats.NewTable("algebra", "batch", "time/op", "speedup")
	ct.AddRow("SA antijoin-division", 1, saBase.Round(time.Microsecond), "1.00x")
	ct.AddRow("γ-division", 1, xBase.Round(time.Microsecond), "1.00x")
	for _, size := range batchSizes() {
		if size == 1 {
			continue
		}
		saGot, saGT := sa.EvalVectorized(nil, saExpr, d, size)
		xGot, xGT := xra.EvalVectorized(nil, xExpr, d, size)
		if !sameEmission(saGot.Tuples(), saWant.Tuples()) || !sameEmission(xGot.Tuples(), xWant.Tuples()) {
			fmt.Fprintf(w, "!! batch %d emission diverges from batch 1\n", size)
			return
		}
		if !tracesMatch(saGT, saWT) || !tracesMatch(xGT, xWT) {
			fmt.Fprintf(w, "!! batch %d trace shape diverges from batch 1\n", size)
			return
		}
		saNs := bench(func() { sa.EvalVectorized(nil, saExpr, d, size) })
		xNs := bench(func() { xra.EvalVectorized(nil, xExpr, d, size) })
		ct.AddRow("SA antijoin-division", size, saNs.Round(time.Microsecond),
			fmt.Sprintf("%.2fx", float64(saBase)/float64(saNs)))
		ct.AddRow("γ-division", size, xNs.Round(time.Microsecond),
			fmt.Sprintf("%.2fx", float64(xBase)/float64(xNs)))
	}
	fmt.Fprintln(w, "compute arm (one worker): SA/γ emission, trace shape and resident peak")
	fmt.Fprintln(w, "identical to batch 1 at every batch size")
	fmt.Fprint(w, ct)

	// Exchange arm.
	const exShards = 4
	sdb := shard.FromStore(d, exShards)
	want, _ := division.Hash{}.Divide(r, s, division.Containment)
	dt := division.NewDivisorTable(s)
	rt := sdb.Router("R")
	counts := []int{1, 2, 4}
	if workers > 0 {
		counts = []int{workers}
	}
	et := stats.NewTable("workers", "batch", "total", "merge (exchange)", "shard compute")
	for _, wk := range counts {
		for _, size := range batchSizes() {
			start := time.Now()
			cursors := make([]engine.BatchCursor, exShards)
			for q := range cursors {
				cursors[q] = ra.ScanBatches(sdb.ShardRel(q, "R"), size)
			}
			qualified := make([]map[rel.Value]bool, exShards)
			engine.Executor{Workers: wk}.StreamShardedBatches(nil, cursors, func(q int, shard engine.BatchCursor) {
				qualified[q], _ = dt.DivideShardBatches(shard, division.Containment)
			})
			mergeStart := time.Now()
			out := rel.NewRelationSized(1, rt.Len())
			for gid := 0; gid < rt.Len(); gid++ {
				v := rt.Value(uint32(gid))
				if qualified[engine.PartOf(uint32(gid), exShards)][v] {
					out.Add(rel.Tuple{v})
				}
			}
			merge := time.Since(mergeStart)
			total := time.Since(start)
			if !sameEmission(out.Tuples(), want.Tuples()) {
				fmt.Fprintln(w, "!! sharded batched division diverges from sequential hash")
				return
			}
			et.AddRow(wk, size, total.Round(time.Microsecond), merge.Round(time.Microsecond),
				(total - merge).Round(time.Microsecond))
		}
	}
	fmt.Fprintln(w)
	fmt.Fprintln(w, "exchange arm (4 shards): every merged emission matched sequential hash")
	fmt.Fprintln(w, "division byte for byte")
	fmt.Fprint(w, et)

	// Planner tail: the optimized set-containment plan — a mixed
	// semijoin/γ plan — must emit byte for byte the same result at
	// every batch size as at the default one.
	wl := workload.SetJoin{RGroups: 200, SGroups: 200, MeanSize: 5, Dist: workload.Uniform,
		Domain: 50, ContainFraction: 0.1, Seed: 21}
	rRel, sRel := wl.Generate()
	dj := rel.NewDatabase(rel.NewSchema(map[string]int{"R": 2, "S": 2}))
	for _, tp := range rRel.Tuples() {
		dj.Add("R", tp)
	}
	for _, tp := range sRel.Tuples() {
		dj.Add("S", tp)
	}
	pe := ra.SetContainmentJoinExpr("R", "S")
	tp, err := plan.Compile(pe, dj, plan.Options{Optimize: true})
	if err != nil {
		fmt.Fprintf(w, "!! planner tail compile: %v\n", err)
		return
	}
	wantJ := tp.Execute()
	for _, size := range batchSizes() {
		vp, err := plan.Compile(pe, dj, plan.Options{Optimize: true, BatchSize: size})
		if err != nil {
			fmt.Fprintf(w, "!! planner tail compile at batch %d: %v\n", size, err)
			return
		}
		if !sameEmission(vp.Execute().Tuples(), wantJ.Tuples()) {
			fmt.Fprintf(w, "!! mixed plan diverges at batch %d\n", size)
			return
		}
	}
	liveAfter, _, _ := rel.BatchPoolStats()
	fmt.Fprintf(w, "\nmixed plan (engine %s) identical at every batch size; batch pool:\n", tp.Engine())
	fmt.Fprintf(w, "%d batches live before the sweep, %d after — transport recycled, nothing leaked\n",
		liveBefore, liveAfter)
}

func runSJ1(w io.Writer) {
	t := stats.NewTable("groups", "algorithm", "time", "pairs considered", "verifications", "result")
	for _, n := range []int{100, 200, 400} {
		wl := workload.SetJoin{RGroups: n, SGroups: n, MeanSize: 6, Dist: workload.Uniform,
			Domain: 400, ContainFraction: 0.05, Seed: 7}
		r, s := wl.Generate()
		gr, gs := setjoin.Groups(r), setjoin.Groups(s)
		for _, alg := range setjoin.ContainmentAlgorithmsWorkers(workers) {
			start := time.Now()
			res, st := alg.Join(gr, gs)
			t.AddRow(n, alg.Name(), time.Since(start).Round(time.Microsecond),
				st.PairsConsidered, st.Verifications, res.Len())
		}
	}
	fmt.Fprint(w, t)
}

func runSJ2(w io.Writer) {
	t := stats.NewTable("groups", "algorithm", "time", "probes", "comparisons", "result")
	for _, n := range []int{200, 400, 800} {
		wl := workload.SetJoin{RGroups: n, SGroups: n, MeanSize: 4, Dist: workload.Fixed,
			Domain: 12, ContainFraction: 0, Seed: 3}
		r, s := wl.Generate()
		gr, gs := setjoin.Groups(r), setjoin.Groups(s)
		for _, alg := range setjoin.EqualityAlgorithmsWorkers(workers) {
			start := time.Now()
			res, st := alg.Join(gr, gs)
			t.AddRow(n, alg.Name(), time.Since(start).Round(time.Microsecond),
				st.Probes, st.Comparisons, res.Len())
		}
	}
	fmt.Fprint(w, t)
}

func runG5(w io.Writer) {
	t := stats.NewTable("|D|", "pure RA max intermediate", "γ-expression max intermediate")
	for _, n := range []int{100, 200, 400} {
		r, s := divisionScaling(n)
		d := rel.NewDatabase(rel.NewSchema(map[string]int{"R": 2, "S": 1}))
		for _, tp := range r.Tuples() {
			d.Add("R", tp)
		}
		for _, tp := range s.Tuples() {
			d.Add("S", tp)
		}
		_, raTrace := ra.EvalTraced(ra.DivisionExpr("R", "S"), d)
		_, gTrace := xra.EvalTraced(xra.ContainmentDivision("R", "S"), d)
		t.AddRow(d.Size(), raTrace.MaxIntermediate, gTrace.MaxIntermediate)
	}
	fmt.Fprint(w, t)
	fmt.Fprintln(w, "\ngrouping/counting turns division linear (Section 5)")
}
