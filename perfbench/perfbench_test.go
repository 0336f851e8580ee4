package main

import (
	"bytes"
	"crypto/sha256"
	"math"
	"testing"
	"time"

	"radiv/internal/plan"
	"radiv/internal/ra"
	"radiv/internal/rel"
	"radiv/internal/workload"
)

// TestSeedDeterminism: equal seeds give identical database and query
// texts; different seeds give different ones.
func TestSeedDeterminism(t *testing.T) {
	type inputs struct{ bulk, adhoc, queries, batch string }
	gen := func(seed int64) inputs {
		w := bulkDivision(seed)
		text := divisionText(w)
		_, divisor, err := divisionOracle(text)
		if err != nil {
			t.Fatal(err)
		}
		batch, _ := newIngestGen(seed, w, divisor).batch()
		return inputs{
			bulk:    hexDigest(text),
			adhoc:   hexDigest(adhocText(seed)),
			queries: queryDigest(adhocQueryTexts(seed)),
			batch:   hexDigest(batch),
		}
	}
	a, b, c := gen(7), gen(7), gen(8)
	if a != b {
		t.Errorf("seed 7 twice gave different inputs:\n%+v\n%+v", a, b)
	}
	if a.bulk == c.bulk || a.adhoc == c.adhoc || a.queries == c.queries || a.batch == c.batch {
		t.Errorf("seeds 7 and 8 share an input digest:\n%+v\n%+v", a, c)
	}
}

// smallDivision is a division database small enough for unit tests.
func smallDivision(seed int64) []byte {
	return divisionText(workload.Division{Groups: 300, GroupSize: 6, Dist: workload.Uniform, DivisorSize: 4, MatchFraction: 0.3, Seed: seed})
}

// TestDivisionOracle: the map-based oracle agrees with the reference
// division on generated inputs.
func TestDivisionOracle(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		text := smallDivision(seed)
		quotient, _, err := divisionOracle(text)
		if err != nil {
			t.Fatal(err)
		}
		db, err := rel.ReadText(bytes.NewReader(text))
		if err != nil {
			t.Fatal(err)
		}
		want := ra.Divide(db.Rel("R"), db.Rel("S")).String()
		if got := string(appendUnary(nil, quotient)); got != want {
			t.Errorf("seed %d: oracle quotient differs from ra.Divide", seed)
		}
	}
}

// TestCorruptedOutputFails: a correct query output passes the check;
// the same output with one byte changed, or with a pooled batch left
// live, is counted as a failure.
func TestCorruptedOutputFails(t *testing.T) {
	text := smallDivision(3)
	quotient, _, err := divisionOracle(text)
	if err != nil {
		t.Fatal(err)
	}
	want := sha256.Sum256(appendUnary(nil, quotient))
	db, err := rel.ReadText(bytes.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	store := epochStore(db)
	b := newBench(config{workload: "divide-bulk", seconds: time.Second})
	live, _, _ := rel.BatchPoolStats()
	out, _, err := b.query(query{text: divisionQuery}, store, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !b.check(out, want, live, nil) || b.failed != 0 {
		t.Fatalf("correct output failed the check: %v", b.failures)
	}
	bad := append([]byte(nil), out...)
	bad[len(bad)/2] ^= 1
	if b.check(bad, want, live, nil) || b.failed != 1 {
		t.Errorf("corrupted output passed the check")
	}
	leaked := rel.NewBatch(1)
	if b.check(out, want, live, nil) || b.failed != 2 {
		t.Errorf("a live pooled batch passed the check")
	}
	leaked.Release()
	if b.attempted != 3 {
		t.Errorf("attempted = %d, want 3", b.attempted)
	}
}

// TestAdhocTemplates: every template parses, agrees with the reference
// evaluator through the production path, and the templates together
// bind all four plan engines.
func TestAdhocTemplates(t *testing.T) {
	db, err := rel.ReadText(bytes.NewReader(adhocText(1)))
	if err != nil {
		t.Fatal(err)
	}
	store := epochStore(db)
	b := newBench(config{workload: "adhoc-small", seconds: time.Second})
	engines := map[plan.Engine]bool{}
	for i, tpl := range adhocTemplates {
		q := query{template: tpl.name, text: tpl.text(i), sa: tpl.sa}
		want, err := referenceDigest(q, store)
		if err != nil {
			t.Fatalf("%s: %v", q.text, err)
		}
		live, _, _ := rel.BatchPoolStats()
		out, p, err := b.query(q, store, i)
		if !b.check(out, want, live, err) {
			t.Errorf("%s: %v", q.text, b.failures)
		}
		if p != nil {
			engines[p.Engine()] = true
		}
	}
	for _, e := range []plan.Engine{plan.EngineRA, plan.EngineSA, plan.EngineXRA, plan.EngineMixed} {
		if !engines[e] {
			t.Errorf("no template binds engine %s", e)
		}
	}
}

// TestIngestBatch: a batch holds the advertised rows, and exactly the
// groups reported as containing the divisor do.
func TestIngestBatch(t *testing.T) {
	w := bulkDivision(1)
	w.Groups = 10
	divisor := []int64{1000000, 1000001, 1000002}
	text, contain := newIngestGen(1, w, divisor).batch()
	quotient, _, err := divisionOracle(append(text, "S 1000000\nS 1000001\nS 1000002\n"...))
	if err != nil {
		t.Fatal(err)
	}
	if got, want := bytes.Count(text, []byte("\nR ")), ingestGroups*ingestGroupSize; got != want {
		t.Errorf("batch has %d rows, want %d", got, want)
	}
	if string(appendUnary(nil, quotient)) != string(appendUnary(nil, contain)) {
		t.Errorf("containing groups %v, oracle says %v", contain, quotient)
	}
}

// TestTracer: self time subtracts the children, and the uncovered share
// is the root's self time over its duration.
func TestTracer(t *testing.T) {
	tr := &tracer{spans: []span{
		{Name: "query", Start: 0, End: 100, Parent: -1},
		{Name: "parser.parse", Start: 0, End: 10, Parent: 0},
		{Name: "executor.execute", Start: 10, End: 90, Parent: 0},
	}}
	self := tr.selfTimes()
	if self[0] != 10 || self[1] != 10 || self[2] != 80 {
		t.Errorf("self times %v", self)
	}
	if u := tr.uncovered("query"); math.Abs(u-0.1) > 1e-9 {
		t.Errorf("uncovered = %v, want 0.1", u)
	}
	var nilTracer *tracer
	if id := nilTracer.begin("x", -1, 0); id != -1 {
		t.Errorf("nil tracer begin = %d", id)
	}
	nilTracer.end(-1)
}

func TestPercentile(t *testing.T) {
	xs := make([]float64, 200)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if v, beyond := percentile(xs, 0.99); v != 198 || beyond != 2 {
		t.Errorf("p99 = %v with %d beyond, want 198 with 2", v, beyond)
	}
	if v, beyond := percentile(xs[:3], 0.9); v != 3 || beyond != 0 {
		t.Errorf("p90 of 3 = %v with %d beyond", v, beyond)
	}
	if m := median([]float64{3, 1, 2, 4}); m != 2.5 {
		t.Errorf("median = %v", m)
	}
}
