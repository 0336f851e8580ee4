package plan_test

import (
	"context"
	"errors"
	"strings"
	"testing"

	"radiv/internal/exec"
	"radiv/internal/leakcheck"
	"radiv/internal/plan"
	"radiv/internal/ra"
	"radiv/internal/rel"
	"radiv/internal/shard"
	"radiv/internal/workload"
)

// TestExecuteContextShardedDivision covers ExecuteContext, the only
// governed entry to the sharded γ-division fast path (shard.DivideGov),
// on a 2-shard published snapshot: a clean run returns the same bytes
// as Execute; a pre-canceled context and a one-tuple resident budget
// each abort with a typed error and a nil result; and no pooled batch
// or goroutine outlives any of the runs.
func TestExecuteContextShardedDivision(t *testing.T) {
	leakcheck.Check(t)
	snap := shard.FromStore(workload.RandomDivision(1).Database(), 2).Snapshot()
	compile := func(lim exec.Limits) *plan.Plan {
		t.Helper()
		p, err := plan.Compile(ra.DivisionExpr("R", "S"), snap, plan.Options{Optimize: true, Workers: 2, Limits: lim})
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(p.Explain(), "fast path: sharded division") {
			t.Fatalf("plan does not take the sharded division fast path:\n%s", p.Explain())
		}
		return p
	}
	live, _, _ := rel.BatchPoolStats()

	p := compile(exec.Limits{})
	want := p.Execute()
	got, err := p.ExecuteContext(context.Background())
	if err != nil {
		t.Fatalf("clean run: %v", err)
	}
	if got.String() != want.String() {
		t.Fatalf("clean run differs from Execute:\n got %v\nwant %v", got, want)
	}
	if want.Len() == 0 {
		t.Fatal("workload has no quotient: the clean comparison is vacuous")
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := p.ExecuteContext(ctx)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-canceled run: error %v does not wrap context.Canceled", err)
	}
	if res != nil {
		t.Fatal("pre-canceled run returned a result")
	}

	res, err = compile(exec.Limits{MaxResident: 1}).ExecuteContext(context.Background())
	var be *exec.BudgetError
	if !errors.As(err, &be) {
		t.Fatalf("budget run: error %v is not a *exec.BudgetError", err)
	}
	if res != nil {
		t.Fatal("budget-tripped run returned a result")
	}

	if after, _, _ := rel.BatchPoolStats(); after != live {
		t.Fatalf("%d pooled batches live after the runs", after-live)
	}
}
