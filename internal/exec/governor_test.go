package exec_test

import (
	"context"
	"errors"
	"testing"
	"time"

	"radiv/internal/exec"
	"radiv/internal/rel"
)

// TestNilGovernorIsUngoverned: every method of a nil *Governor is a
// no-op, so legacy entry points can thread nil everywhere.
func TestNilGovernorIsUngoverned(t *testing.T) {
	var g *exec.Governor
	if g.Done() != nil {
		t.Error("nil governor Done() should be nil (blocks forever in select)")
	}
	g.Check()
	g.CheckResident(1 << 30)
	g.Abort(errors.New("ignored"))
	if g.Aborted() {
		t.Error("nil governor reports aborted")
	}
	if g.Err() != nil {
		t.Error("nil governor has an error")
	}
	g.OnAbort(func() { t.Error("cleanup ran on nil governor") })
	g.Watch(nil)
	g.AbortRecovered("ignored")
}

// TestNilGovernorRecoverConvertsPanics: even without a governor,
// Recover turns a panic into a typed error at the boundary.
func TestNilGovernorRecoverConvertsPanics(t *testing.T) {
	boom := errors.New("scan exploded")
	err := func() (err error) {
		var g *exec.Governor
		defer g.Recover(&err)
		panic(boom)
	}()
	var pe *exec.PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("want *PanicError, got %v", err)
	}
	if !errors.Is(err, boom) {
		t.Fatalf("PanicError %v does not unwrap to the panic value", err)
	}
}

// TestAbortFirstWins: the first recorded cause survives later aborts.
func TestAbortFirstWins(t *testing.T) {
	first := errors.New("first failure")
	g := exec.NewGovernor(nil, exec.Limits{})
	g.Abort(first)
	g.Abort(errors.New("second failure"))
	if !g.Aborted() {
		t.Fatal("governor not aborted")
	}
	if !errors.Is(g.Err(), first) {
		t.Fatalf("cause %v is not the first abort", g.Err())
	}
	select {
	case <-g.Done():
	default:
		t.Fatal("Done not closed after abort")
	}
	var err error
	func() { defer g.Recover(&err) }()
	if !errors.Is(err, first) {
		t.Fatalf("boundary error %v is not the first abort", err)
	}
}

// TestCheckThrowsAfterAbort: a guard observing an aborted governor
// unwinds with the recorded cause.
func TestCheckThrowsAfterAbort(t *testing.T) {
	boom := errors.New("aborted elsewhere")
	err := exec.Do(context.Background(), exec.Limits{}, func(g *exec.Governor) {
		g.Abort(boom)
		g.Check()
		t.Error("Check returned after abort")
	})
	if !errors.Is(err, boom) {
		t.Fatalf("want %v, got %v", boom, err)
	}
}

// TestThrowUnwindsToBoundary: exec.Throw records the cause and
// unwinds only as far as the deferred Recover.
func TestThrowUnwindsToBoundary(t *testing.T) {
	boom := errors.New("thrown")
	err := exec.Do(context.Background(), exec.Limits{}, func(g *exec.Governor) {
		exec.Throw(g, boom)
	})
	if !errors.Is(err, boom) {
		t.Fatalf("want %v, got %v", boom, err)
	}
}

// TestResidentBudget: CheckResident trips exactly past the limit with
// a typed, inspectable BudgetError.
func TestResidentBudget(t *testing.T) {
	err := exec.Do(context.Background(), exec.Limits{MaxResident: 10}, func(g *exec.Governor) {
		g.CheckResident(10) // at the limit: fine
		g.CheckResident(11) // past it: throws
		t.Error("CheckResident(11) returned")
	})
	var be *exec.BudgetError
	if !errors.As(err, &be) {
		t.Fatalf("want *BudgetError, got %v", err)
	}
	if be.Resource != "resident tuples" || be.Limit != 10 || be.Used != 11 {
		t.Fatalf("wrong budget fields: %+v", be)
	}
}

// TestLiveBatchBudget: Check trips when pooled batches above the
// creation-time baseline exceed the limit.
func TestLiveBatchBudget(t *testing.T) {
	var held []*rel.Batch
	defer func() {
		for _, b := range held {
			b.Release()
		}
	}()
	err := exec.Do(context.Background(), exec.Limits{MaxLiveBatches: 2}, func(g *exec.Governor) {
		for i := 0; i < 3; i++ {
			held = append(held, rel.NewBatch(1))
		}
		g.Check()
		t.Error("Check returned past the live-batch budget")
	})
	var be *exec.BudgetError
	if !errors.As(err, &be) {
		t.Fatalf("want *BudgetError, got %v", err)
	}
	if be.Resource != "pooled batches" {
		t.Fatalf("wrong resource: %+v", be)
	}
}

// TestCanceledContext: Check observes context cancellation
// synchronously and the boundary error wraps context.Canceled.
func TestCanceledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	err := exec.Do(ctx, exec.Limits{}, func(g *exec.Governor) {
		g.Check() // not canceled yet
		cancel()
		g.Check()
		t.Error("Check returned after cancel")
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
}

// TestDoBoundary: exec.Do reports success as nil, converts a plain
// panic into a *PanicError, and runs the registered cleanups on both
// paths before returning.
func TestDoBoundary(t *testing.T) {
	for _, fail := range []bool{false, true} {
		cleaned := false
		err := exec.Do(context.Background(), exec.Limits{}, func(g *exec.Governor) {
			g.OnAbort(func() { cleaned = true })
			if fail {
				panic("evaluator bug")
			}
		})
		if !cleaned {
			t.Errorf("fail=%v: cleanup did not run", fail)
		}
		var pe *exec.PanicError
		if fail != errors.As(err, &pe) {
			t.Errorf("fail=%v: error %v", fail, err)
		}
	}
}

// TestWatcherAbortsBlockedQuery: the watcher goroutine converts a
// cancel into an abort even when no guard is running — that is what
// unblocks exchange sends parked on Done.
func TestWatcherAbortsBlockedQuery(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	g := exec.NewGovernor(ctx, exec.Limits{})
	cancel()
	select {
	case <-g.Done():
	case <-time.After(5 * time.Second):
		t.Fatal("watcher never closed Done after cancel")
	}
	var err error
	func() { defer g.Recover(&err) }()
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
}

// TestCleanupsReverseOrderOnce: OnAbort cleanups run at the boundary
// in reverse registration order, exactly once even if the governor is
// recovered twice.
func TestCleanupsReverseOrderOnce(t *testing.T) {
	g := exec.NewGovernor(nil, exec.Limits{})
	var order []int
	for i := 0; i < 3; i++ {
		i := i
		g.OnAbort(func() { order = append(order, i) })
	}
	var err error
	func() { defer g.Recover(&err) }()
	func() { defer g.Recover(&err) }()
	if len(order) != 3 || order[0] != 2 || order[1] != 1 || order[2] != 0 {
		t.Fatalf("cleanups ran %v; want [2 1 0]", order)
	}
}

// heldRelease implements rel.BatchHolder for the Watch test.
type heldRelease struct{ n int }

func (h *heldRelease) ReleaseHeld() { h.n++ }

// TestWatchRegistersBatchHolders: Watch hooks a BatchHolder's release
// into the boundary cleanups and ignores everything else.
func TestWatchRegistersBatchHolders(t *testing.T) {
	g := exec.NewGovernor(nil, exec.Limits{})
	h := &heldRelease{}
	g.Watch(h)
	g.Watch(42)  // not a holder: ignored
	g.Watch(nil) // ignored
	var err error
	func() { defer g.Recover(&err) }()
	if h.n != 1 {
		t.Fatalf("ReleaseHeld ran %d times; want 1", h.n)
	}
}

// TestAbortRecoveredFromWorker: a worker's recovered panic becomes
// the governor's cause as a *PanicError that unwraps to the value.
func TestAbortRecoveredFromWorker(t *testing.T) {
	boom := errors.New("worker panic")
	g := exec.NewGovernor(nil, exec.Limits{})
	func() {
		defer func() { g.AbortRecovered(recover()) }()
		panic(boom)
	}()
	if !errors.Is(g.Err(), boom) {
		t.Fatalf("cause %v does not wrap the worker panic", g.Err())
	}
	var pe *exec.PanicError
	if !errors.As(g.Err(), &pe) {
		t.Fatalf("cause %v is not a *PanicError", g.Err())
	}
	if len(pe.Stack) == 0 {
		t.Error("PanicError carries no stack")
	}
}

// TestRecoverPanicBoundary: the governor-free boundary handler for
// the materialized evaluators.
func TestRecoverPanicBoundary(t *testing.T) {
	err := func() (err error) {
		defer exec.RecoverPanic(&err)
		panic("ra: join arity mismatch")
	}()
	var pe *exec.PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("want *PanicError, got %v", err)
	}
	if pe.Unwrap() != nil {
		t.Error("string panic should not unwrap to an error")
	}
}

// TestSuccessfulRecoverYieldsNil: a clean run leaves *errp nil.
func TestSuccessfulRecoverYieldsNil(t *testing.T) {
	err := func() (err error) {
		g := exec.NewGovernor(context.Background(), exec.Limits{})
		defer g.Recover(&err)
		g.Check()
		g.CheckResident(0)
		return nil
	}()
	if err != nil {
		t.Fatalf("clean run returned %v", err)
	}
}
