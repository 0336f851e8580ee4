package ra_test

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"radiv/internal/exec"
	"radiv/internal/faultinject"
	"radiv/internal/ra"
	"radiv/internal/rel"
	"radiv/internal/workload"
)

// errVecAbort is the injected cursor failure of the aborted-run
// equivalence sweep.
var errVecAbort = errors.New("ra_test: injected abort")

// checkVectorizedAborted runs the plan through the governed vectorized
// executor over a store whose scans fail at row 3, asserting the abort
// contract at every sweep batch size: the injected error (when the
// plan pulls far enough to hit it) surfaces wrapped, the result is
// nil, and — always — the batch pool returns to its pre-query level.
func checkVectorizedAborted(t *testing.T, name string, e ra.Expr, d rel.ReadStore) {
	t.Helper()
	for _, size := range vecBatchSizes {
		st := faultinject.Wrap(d, faultinject.Fault{FailAfter: 3, Err: errVecAbort})
		liveBefore, _, _ := rel.BatchPoolStats()
		var res *rel.Relation
		err := exec.Do(context.Background(), exec.Limits{}, func(g *exec.Governor) { res, _ = ra.EvalVectorized(g, e, st, size) })
		if liveAfter, _, _ := rel.BatchPoolStats(); liveAfter != liveBefore {
			t.Fatalf("%s size=%d: aborted run leaked %d batches", name, size, liveAfter-liveBefore)
		}
		if err != nil {
			if !errors.Is(err, errVecAbort) {
				t.Fatalf("%s size=%d: abort error %v does not wrap the injection", name, size, err)
			}
			if res != nil {
				t.Fatalf("%s size=%d: aborted run returned a result", name, size)
			}
		} else if res == nil {
			// Plans that short-circuit (dictionary-absent selections)
			// may finish before any scan reaches the injection row;
			// they must then have produced a real result.
			t.Fatalf("%s size=%d: nil result without error", name, size)
		}
	}
}

// TestVectorizedAbortedRunsReleasePool runs the full operator corpus
// through mid-run aborts at every sweep batch size, then re-runs the
// clean equivalence check to prove an abort storm leaves the executor
// (and the shared batch pool) fully serviceable.
func TestVectorizedAbortedRunsReleasePool(t *testing.T) {
	d := setJoinDatabase(1)
	for _, c := range vectorCorpus() {
		checkVectorizedAborted(t, c.name, c.e, d)
		checkVectorized(t, fmt.Sprintf("%s after aborts", c.name), c.e, d)
	}
	dv := workload.RandomDivision(1).Database()
	checkVectorizedAborted(t, "division", ra.DivisionExpr("R", "S"), dv)
	checkVectorized(t, "division after aborts", ra.DivisionExpr("R", "S"), dv)
}
