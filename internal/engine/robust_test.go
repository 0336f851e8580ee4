package engine

import (
	"context"
	"errors"
	"testing"

	"radiv/internal/exec"
	"radiv/internal/leakcheck"
	"radiv/internal/rel"
)

// TestStreamPartitionedEarlyStopJoinsRouter: a work callback that
// abandons its shard after one batch would strand the router on a full
// channel forever without the drain-on-return contract, which must
// join every goroutine even ungoverned — here at single-row batches,
// where the channels fill fastest.
func TestStreamPartitionedEarlyStopJoinsRouter(t *testing.T) {
	leakcheck.Check(t)
	const n = 100000 // far more than the channels can buffer
	r := rel.NewRelation(1)
	for i := 0; i < n; i++ {
		r.Add(rel.Ints(int64(i)))
	}
	for _, workers := range []int{2, 4, 8} {
		live, _, _ := rel.BatchPoolStats()
		ex := Executor{Workers: workers}
		ex.StreamPartitionedBatches(nil, r.BatchScanSized(1), func(b *rel.Batch, row int) int {
			return int(b.Col(0)[row]) % ex.WorkerCount()
		}, func(q int, shard BatchCursor) {
			if b, ok := shard.NextBatch(); ok { // abandon the rest
				b.Release()
			}
		})
		if after, _, _ := rel.BatchPoolStats(); after != live {
			t.Fatalf("workers=%d: %d batches leaked on early stop", workers, after-live)
		}
	}
}

// TestStreamPartitionedBatchesEarlyStopReleasesAll: the batch
// exchange's early-stop path must additionally release every batch
// still staged or in flight.
func TestStreamPartitionedBatchesEarlyStopReleasesAll(t *testing.T) {
	leakcheck.Check(t)
	var tuples []rel.Tuple
	for i := 0; i < 50000; i++ {
		tuples = append(tuples, rel.Ints(int64(i%31), int64(i)))
	}
	for _, workers := range []int{2, 4} {
		live, _, _ := rel.BatchPoolStats()
		ex := Executor{Workers: workers}
		ex.StreamPartitionedBatches(nil, scanOf(tuples, 2, 64), func(b *rel.Batch, row int) int {
			return int(b.Col(0)[row]) % ex.WorkerCount()
		}, func(q int, shard BatchCursor) {
			if b, ok := shard.NextBatch(); ok {
				b.Release()
			}
			// abandon the rest
		})
		if after, _, _ := rel.BatchPoolStats(); after != live {
			t.Fatalf("workers=%d: %d batches leaked on early stop", workers, after-live)
		}
	}
}

// TestStreamPartitionedGovWorkerPanicAborts: a panicking worker must
// surface as the governor's abort cause — not kill the process — and
// the exchange must still join every goroutine and release every
// batch.
func TestStreamPartitionedGovWorkerPanicAborts(t *testing.T) {
	leakcheck.Check(t)
	boom := errors.New("worker exploded")
	var tuples []rel.Tuple
	for i := 0; i < 50000; i++ {
		tuples = append(tuples, rel.Ints(int64(i%17), int64(i)))
	}
	live, _, _ := rel.BatchPoolStats()
	err := exec.Do(context.Background(), exec.Limits{}, func(g *exec.Governor) {
		ex := Executor{Workers: 4}
		ex.StreamPartitionedBatches(g, scanOf(tuples, 2, 64), func(b *rel.Batch, row int) int {
			return int(b.Col(0)[row]) % ex.WorkerCount()
		}, func(q int, shard BatchCursor) {
			if q == 1 {
				panic(boom)
			}
			for b, ok := shard.NextBatch(); ok; b, ok = shard.NextBatch() {
				b.Release()
			}
		})
		g.Check() // observe the abort on the boundary goroutine
	})
	if err == nil {
		t.Fatal("want abort error, got nil")
	}
	if !errors.Is(err, boom) {
		t.Fatalf("abort cause %v does not wrap the worker panic", err)
	}
	if after, _, _ := rel.BatchPoolStats(); after != live {
		t.Fatalf("%d batches leaked on worker panic", after-live)
	}
}

// TestOrderedMergeStopCloseUnblocksProducers: producers blocked on
// full merge channels must return once the consumer closes the merge
// (the leak check fails on a stranded producer), and the closed cursor
// yields nothing more.
func TestOrderedMergeStopCloseUnblocksProducers(t *testing.T) {
	leakcheck.Check(t)
	stop := NewStop()
	chans := make([]chan []rel.Tuple, 4)
	for i := range chans {
		chans[i] = make(chan []rel.Tuple, 2)
		go func(ch chan []rel.Tuple) {
			defer close(ch)
			for j := 0; j < 10000; j++ {
				if !SendOr(ch, []rel.Tuple{rel.Ints(int64(j))}, stop.C()) {
					return
				}
			}
		}(chans[i])
	}
	cur := OrderedMergeChunks(stop, chans)
	if _, ok := cur.Next(); !ok {
		t.Fatal("merge yielded nothing")
	}
	cur.Close()
	if _, ok := cur.Next(); ok {
		t.Fatal("cursor yielded after Close")
	}
}

// TestRunGovernedSkipsAfterAbort: once a task aborts the query, the
// pool stops claiming new tasks, and the recorded cause is the first
// failure.
func TestRunGovernedSkipsAfterAbort(t *testing.T) {
	leakcheck.Check(t)
	boom := errors.New("task failed")
	g := exec.NewGovernor(nil, exec.Limits{})
	Executor{Workers: 1}.Run(g, 100, func(i int) {
		if i == 3 {
			panic(boom)
		}
		if i > 3 {
			t.Errorf("task %d ran after abort", i)
		}
	})
	if err := g.Err(); !errors.Is(err, boom) {
		t.Fatalf("cause %v does not wrap the task panic", err)
	}
}
