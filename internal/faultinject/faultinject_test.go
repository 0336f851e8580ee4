package faultinject_test

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"radiv/internal/exec"
	"radiv/internal/faultinject"
	"radiv/internal/leakcheck"
	"radiv/internal/parser"
	"radiv/internal/plan"
	"radiv/internal/ra"
	"radiv/internal/rel"
	"radiv/internal/sa"
	"radiv/internal/xra"
)

// The suite drives every governed entry point — ra/sa/xra and the
// planner, at batch sizes 1, 64 and 1024 — through injected failures
// and asserts the robustness contract after each abort:
//
//   - exactly one typed error that wraps the injected cause,
//   - a nil result,
//   - zero pooled batches live beyond the pre-query level,
//   - zero leaked goroutines (leakcheck),
//   - the source snapshot byte-identical to before the query.

var errInjected = errors.New("faultinject: injected cursor failure")

// newSnapshot publishes the suite's shared database: sizes are chosen
// so every relation survives FailAfter/CancelAt in [1,5] and so at
// least one batch boundary of pulls remains after any injection
// point — that is what makes the abort
// deterministic rather than watcher-scheduling dependent.
func newSnapshot() *rel.Snapshot {
	ep := rel.NewEpoch(rel.NewSchema(map[string]int{"R": 2, "S": 1, "T": 2}))
	for i := 0; i < 400; i++ {
		ep.AddInts("R", int64(i%50), int64(i%37))
		ep.AddInts("T", int64(i%23), int64(i%41))
	}
	for j := 0; j < 30; j++ {
		ep.AddInts("S", int64(j))
	}
	return ep.Publish()
}

// fingerprint renders every relation of the snapshot; the randomized
// suite compares these before and after each abort to prove aborted
// queries never touch published state.
func fingerprint(snap *rel.Snapshot) map[string]string {
	fp := make(map[string]string)
	for _, name := range snap.Schema().Names() {
		fp[name] = fmt.Sprintf("%v", snap.Rel(name))
	}
	return fp
}

// arm is one governed entry point under test. zeroResident marks
// queries that legitimately keep no resident state (the diff consumes
// its subtrahend in place and defers projection dedup to the sink), so
// the resident-budget test skips them.
type arm struct {
	name         string
	zeroResident bool
	run          func(ctx context.Context, d rel.ReadStore, lim exec.Limits) (*rel.Relation, error)
}

// arms builds the full entry-point matrix against the schema. Except
// for the zeroResident arms, every query builds resident state (a
// hash side or division groups), so the budget test trips on it.
func arms(t *testing.T, schema rel.Schema, batchSize int) []arm {
	t.Helper()
	raExpr, err := parser.ParseRA("join[2=1](R, S)", schema)
	if err != nil {
		t.Fatal(err)
	}
	raExpr2, err := parser.ParseRA("diff(project[1](R), S)", schema)
	if err != nil {
		t.Fatal(err)
	}
	saExpr, err := parser.ParseSA("semijoin[2=1](R, S)", schema)
	if err != nil {
		t.Fatal(err)
	}
	xraExpr := xra.ContainmentDivision("R", "S")
	return []arm{
		{name: "ra", run: func(ctx context.Context, d rel.ReadStore, lim exec.Limits) (*rel.Relation, error) {
			return governed(ctx, lim, func(g *exec.Governor) (*rel.Relation, *ra.Trace) {
				return ra.EvalVectorized(g, raExpr, d, batchSize)
			})
		}},
		{name: "ra/diff", zeroResident: true, run: func(ctx context.Context, d rel.ReadStore, lim exec.Limits) (*rel.Relation, error) {
			return governed(ctx, lim, func(g *exec.Governor) (*rel.Relation, *ra.Trace) {
				return ra.EvalVectorized(g, raExpr2, d, batchSize)
			})
		}},
		{name: "sa", run: func(ctx context.Context, d rel.ReadStore, lim exec.Limits) (*rel.Relation, error) {
			return governed(ctx, lim, func(g *exec.Governor) (*rel.Relation, *ra.Trace) {
				return sa.EvalVectorized(g, saExpr, d, batchSize)
			})
		}},
		{name: "xra", run: func(ctx context.Context, d rel.ReadStore, lim exec.Limits) (*rel.Relation, error) {
			return governed(ctx, lim, func(g *exec.Governor) (*rel.Relation, *ra.Trace) {
				return xra.EvalVectorized(g, xraExpr, d, batchSize)
			})
		}},
		{name: "plan", run: func(ctx context.Context, d rel.ReadStore, lim exec.Limits) (*rel.Relation, error) {
			p, err := plan.Compile(raExpr, d, plan.Options{Optimize: true, BatchSize: batchSize, Limits: lim})
			if err != nil {
				return nil, err
			}
			res, _, err := p.ExecuteTracedContext(ctx)
			return res, err
		}},
	}
}

// governed runs one streaming evaluation at the exec.Do boundary,
// returning a nil result on error.
func governed(ctx context.Context, lim exec.Limits, eval func(g *exec.Governor) (*rel.Relation, *ra.Trace)) (*rel.Relation, error) {
	var res *rel.Relation
	if err := exec.Do(ctx, lim, func(g *exec.Governor) { res, _ = eval(g) }); err != nil {
		return nil, err
	}
	return res, nil
}

// raGoverned is governed over the RA executor.
func raGoverned(ctx context.Context, e ra.Expr, d rel.ReadStore, batchSize int) (*rel.Relation, error) {
	return governed(ctx, exec.Limits{}, func(g *exec.Governor) (*rel.Relation, *ra.Trace) {
		return ra.EvalVectorized(g, e, d, batchSize)
	})
}

// checkAborted asserts the per-abort contract shared by every test:
// exactly one error wrapping want, nil result, balanced batch pool.
func checkAborted(t *testing.T, label string, res *rel.Relation, err error, want error, liveBefore int64) {
	t.Helper()
	if err == nil {
		t.Fatalf("%s: want abort error, got nil (res=%v)", label, res)
	}
	if !errors.Is(err, want) {
		t.Fatalf("%s: error %v does not wrap %v", label, err, want)
	}
	if res != nil {
		t.Fatalf("%s: aborted query returned a result", label)
	}
	if after, _, _ := rel.BatchPoolStats(); after != liveBefore {
		t.Fatalf("%s: %d pooled batches leaked on abort", label, after-liveBefore)
	}
}

// TestInjectedCursorErrorAborts: a cursor failure at row N surfaces
// as a single wrapped error at every entry point, with no result, no
// leaked batches, no leaked goroutines and an untouched snapshot.
func TestInjectedCursorErrorAborts(t *testing.T) {
	leakcheck.Check(t)
	snap := newSnapshot()
	before := fingerprint(snap)
	for _, batchSize := range []int{1, 64, 1024} {
		for _, a := range arms(t, snap.Schema(), batchSize) {
			for _, failAfter := range []int{1, 3, 5} {
				label := fmt.Sprintf("%s/bs=%d/failAfter=%d", a.name, batchSize, failAfter)
				st := faultinject.Wrap(snap, faultinject.Fault{FailAfter: failAfter, Err: errInjected})
				live, _, _ := rel.BatchPoolStats()
				res, err := a.run(context.Background(), st, exec.Limits{})
				checkAborted(t, label, res, err, errInjected, live)
			}
		}
	}
	for name, fp := range fingerprint(snap) {
		if fp != before[name] {
			t.Errorf("relation %s changed across aborted queries", name)
		}
	}
}

// TestBudgetTripAborts: every entry point aborts with *exec.BudgetError
// once its resident-tuple budget is exceeded, releasing all batches.
func TestBudgetTripAborts(t *testing.T) {
	leakcheck.Check(t)
	snap := newSnapshot()
	for _, bs := range []int{1, 64, 1024} {
		for _, a := range arms(t, snap.Schema(), bs) {
			if a.zeroResident {
				continue
			}
			label := fmt.Sprintf("%s/bs=%d", a.name, bs)
			live, _, _ := rel.BatchPoolStats()
			res, err := a.run(context.Background(), snap, exec.Limits{MaxResident: 2})
			if err == nil {
				t.Fatalf("%s: want budget error, got nil (res=%v)", label, res)
			}
			var be *exec.BudgetError
			if !errors.As(err, &be) {
				t.Fatalf("%s: error %v is not a *exec.BudgetError", label, err)
			}
			if res != nil {
				t.Fatalf("%s: budget-tripped query returned a result", label)
			}
			if after, _, _ := rel.BatchPoolStats(); after != live {
				t.Fatalf("%s: %d pooled batches leaked on budget trip", label, after-live)
			}
		}
	}
}

// TestPreCanceledContext: a context canceled before the query starts
// aborts at the first guard without touching the pool.
func TestPreCanceledContext(t *testing.T) {
	leakcheck.Check(t)
	snap := newSnapshot()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, bs := range []int{1, 64, 1024} {
		for _, a := range arms(t, snap.Schema(), bs) {
			live, _, _ := rel.BatchPoolStats()
			res, err := a.run(ctx, snap, exec.Limits{})
			checkAborted(t, fmt.Sprintf("%s/bs=%d", a.name, bs), res, err, context.Canceled, live)
		}
	}
}

// TestCancelMidFlight: a cancel fired from inside the scan (at an
// exact row, via the fault hook) aborts every entry point cleanly.
func TestCancelMidFlight(t *testing.T) {
	leakcheck.Check(t)
	snap := newSnapshot()
	for _, bs := range []int{1, 64, 1024} {
		for _, a := range arms(t, snap.Schema(), bs) {
			ctx, cancel := context.WithCancel(context.Background())
			st := faultinject.Wrap(snap, faultinject.Fault{CancelAt: 5, OnRow: cancel})
			live, _, _ := rel.BatchPoolStats()
			res, err := a.run(ctx, st, exec.Limits{})
			checkAborted(t, fmt.Sprintf("%s/bs=%d", a.name, bs), res, err, context.Canceled, live)
			cancel()
		}
	}
}

// TestRandomizedAbortSuite is the seeded fuzz pass over the whole
// matrix: random entry point × batch size × injection kind × injection
// row, every iteration re-asserting the abort contract and, at the
// end, snapshot identity. Run under -race this doubles as the
// goroutine-join proof for the governed exchanges.
func TestRandomizedAbortSuite(t *testing.T) {
	leakcheck.Check(t)
	snap := newSnapshot()
	before := fingerprint(snap)
	rng := rand.New(rand.NewSource(0x5eed))
	batchSizes := []int{1, 8, 64, 1024}
	for iter := 0; iter < 80; iter++ {
		bs := batchSizes[rng.Intn(len(batchSizes))]
		as := arms(t, snap.Schema(), bs)
		a := as[rng.Intn(len(as))]
		k := 1 + rng.Intn(5)
		kind := rng.Intn(2)
		label := fmt.Sprintf("iter=%d/%s/bs=%d/k=%d/kind=%d", iter, a.name, bs, k, kind)
		live, _, _ := rel.BatchPoolStats()
		switch kind {
		case 0: // injected cursor error
			st := faultinject.Wrap(snap, faultinject.Fault{FailAfter: k, Err: errInjected})
			res, err := a.run(context.Background(), st, exec.Limits{})
			checkAborted(t, label, res, err, errInjected, live)
		case 1: // cancellation at row k
			ctx, cancel := context.WithCancel(context.Background())
			st := faultinject.Wrap(snap, faultinject.Fault{CancelAt: k, OnRow: cancel})
			res, err := a.run(ctx, st, exec.Limits{})
			checkAborted(t, label, res, err, context.Canceled, live)
			cancel()
		}
	}
	for name, fp := range fingerprint(snap) {
		if fp != before[name] {
			t.Errorf("relation %s changed across the randomized abort suite", name)
		}
	}
}

// TestCleanRunAfterAborts: after a storm of aborts the engine still
// answers correctly — the same query over the unwrapped snapshot
// matches the materialized evaluator.
func TestCleanRunAfterAborts(t *testing.T) {
	leakcheck.Check(t)
	snap := newSnapshot()
	e, err := parser.ParseRA("join[2=1](R, S)", snap.Schema())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		st := faultinject.Wrap(snap, faultinject.Fault{FailAfter: 2, Err: errInjected})
		_, err := raGoverned(context.Background(), e, st, 8)
		if !errors.Is(err, errInjected) {
			t.Fatalf("warm-up abort %d: %v", i, err)
		}
	}
	want := ra.Eval(e, snap)
	got, err := raGoverned(context.Background(), e, snap, 8)
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != want.String() {
		t.Fatalf("post-abort run diverged:\n got %v\nwant %v", got, want)
	}
}

// TestCancellationLatencyWithinOneBatch pins the cancellation-latency
// contract: a cancel fired mid-scan is
// observed within one batch boundary — the scan yields at most one
// batch of rows past the cancellation point — at batch sizes 1, 64
// and 1024. The fault store's row counter measures exactly how far
// the (synthetically slow) scan ran past the cancel.
func TestCancellationLatencyWithinOneBatch(t *testing.T) {
	leakcheck.Check(t)
	ep := rel.NewEpoch(rel.NewSchema(map[string]int{"Big": 1}))
	for i := 0; i < 5000; i++ {
		ep.AddInts("Big", int64(i))
	}
	snap := ep.Publish()
	e, err := parser.ParseRA("project[1](Big)", snap.Schema())
	if err != nil {
		t.Fatal(err)
	}
	const cancelAt = 100
	for _, bs := range []int{1, 64, 1024} {
		ctx, cancel := context.WithCancel(context.Background())
		st := faultinject.Wrap(snap, faultinject.Fault{
			CancelAt:   cancelAt,
			OnRow:      cancel,
			DelayEvery: 50,
			Delay:      100 * time.Microsecond,
		})
		live, _, _ := rel.BatchPoolStats()
		res, rerr := raGoverned(ctx, e, st, bs)
		checkAborted(t, fmt.Sprintf("bs=%d", bs), res, rerr, context.Canceled, live)
		if extra := st.Rows() - cancelAt; extra < 0 || extra > bs {
			t.Errorf("bs=%d: scan ran %d rows past the cancel; want at most one batch (%d)", bs, extra, bs)
		}
		cancel()
	}
}

// TestFaultStoreIsTransparent: with a zero Fault the wrapper changes
// nothing — results match the unwrapped store exactly.
func TestFaultStoreIsTransparent(t *testing.T) {
	snap := newSnapshot()
	e, err := parser.ParseRA("join[2=1](R, S)", snap.Schema())
	if err != nil {
		t.Fatal(err)
	}
	st := faultinject.Wrap(snap, faultinject.Fault{})
	got, _ := ra.EvalVectorized(nil, e, st, 0)
	want := ra.Eval(e, snap)
	if got.String() != want.String() {
		t.Fatalf("transparent wrap diverged:\n got %v\nwant %v", got, want)
	}
	if st.Rows() == 0 {
		t.Fatal("row counter did not observe the scan")
	}
}
