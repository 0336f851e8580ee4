package sa

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"radiv/internal/exec"
	"radiv/internal/faultinject"
	"radiv/internal/rel"
)

// errVecAbort is the injected cursor failure of the aborted-run
// equivalence sweep.
var errVecAbort = errors.New("sa: injected abort")

// checkVectorizedAborted mirrors the ra suite's abort sweep for the
// semijoin algebra: the governed vectorized executor over a failing
// store must surface the injected error (when reached), return no
// result, and always leave the batch pool balanced.
func checkVectorizedAborted(t *testing.T, name string, e Expr, d rel.ReadStore) {
	t.Helper()
	for _, size := range vecBatchSizes {
		st := faultinject.Wrap(d, faultinject.Fault{FailAfter: 3, Err: errVecAbort})
		liveBefore, _, _ := rel.BatchPoolStats()
		var res *rel.Relation
		err := exec.Do(context.Background(), exec.Limits{}, func(g *exec.Governor) { res, _ = EvalVectorized(g, e, st, size) })
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
			t.Fatalf("%s size=%d: nil result without error", name, size)
		}
	}
}

// TestVectorizedSAAbortedRunsReleasePool: mid-run aborts across the
// SA corpus leave the pool balanced and the executor serviceable.
func TestVectorizedSAAbortedRunsReleasePool(t *testing.T) {
	d := setJoinDatabase(1)
	for _, c := range saVectorCorpus() {
		if c.name == "lousy-bar" {
			continue // needs the bar schema
		}
		checkVectorizedAborted(t, c.name, c.e, d)
		checkVectorized(t, fmt.Sprintf("%s after aborts", c.name), c.e, d)
	}
}
