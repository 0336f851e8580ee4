package engine

import (
	"sync"
	"sync/atomic"
	"testing"

	"radiv/internal/leakcheck"
	"radiv/internal/rel"
)

// TestStreamPartitionedDeliversEveryTupleOnce: every row of a stored
// relation's native batch scan reaches exactly the partition route
// assigned it, in input order within each partition, across worker
// counts. Nothing writes to the relation during the exchange, so its
// dictionaries are frozen and workers may decode values while the
// router is still routing — the read side of the snapshot contract.
func TestStreamPartitionedDeliversEveryTupleOnce(t *testing.T) {
	leakcheck.Check(t)
	const n = 5000
	r := rel.NewRelation(2)
	for i := 0; i < n; i++ {
		r.Add(rel.Ints(int64(i), int64(i%97)))
	}
	for _, workers := range []int{1, 2, 3, 8} {
		live, _, _ := rel.BatchPoolStats()
		ex := Executor{Workers: workers}
		w := ex.WorkerCount()
		got := make([][]rel.Tuple, w)
		var mu sync.Mutex
		parts := ex.StreamPartitionedBatches(nil, r.BatchScanSized(64), func(b *rel.Batch, row int) int {
			return PartOf(uint32(b.Value(0, row).AsInt()), w)
		}, func(q int, shard BatchCursor) {
			var local []rel.Tuple
			for b, ok := shard.NextBatch(); ok; b, ok = shard.NextBatch() {
				for row := 0; row < b.Len(); row++ {
					local = append(local, rel.Tuple{b.Value(0, row), b.Value(1, row)})
				}
				b.Release()
			}
			mu.Lock()
			got[q] = local
			mu.Unlock()
		})
		if parts != w {
			t.Fatalf("workers=%d: got %d partitions, want %d", workers, parts, w)
		}
		if after, _, _ := rel.BatchPoolStats(); after != live {
			t.Fatalf("workers=%d: %d batches leaked", workers, after-live)
		}
		total := 0
		for q, ts := range got {
			prev := int64(-1)
			for _, tup := range ts {
				if w > 1 {
					if want := PartOf(uint32(tup[0].AsInt()), w); want != q {
						t.Fatalf("workers=%d: tuple %v landed in partition %d, want %d", workers, tup, q, want)
					}
				}
				if tup[0].AsInt() <= prev {
					t.Fatalf("workers=%d partition %d: order violated at %v", workers, q, tup)
				}
				prev = tup[0].AsInt()
				total++
			}
		}
		if total != n {
			t.Fatalf("workers=%d: delivered %d tuples, want %d", workers, total, n)
		}
	}
}

// TestStreamPartitionedPipelines: with bounded channels, workers must
// start consuming before the router finishes. The router produces far
// more rows than workers × batchChanCap batches can buffer; if no
// worker consumed concurrently, the exchange would deadlock.
func TestStreamPartitionedPipelines(t *testing.T) {
	leakcheck.Check(t)
	const n = 100000 // far beyond workers × channel capacity
	r := rel.NewRelation(1)
	for i := 0; i < n; i++ {
		r.Add(rel.Ints(int64(i)))
	}
	var consumed atomic.Int64
	ex := Executor{Workers: 4}
	ex.StreamPartitionedBatches(nil, r.BatchScanSized(64), func(b *rel.Batch, row int) int {
		return PartOf(b.Col(0)[row], ex.WorkerCount())
	}, func(q int, shard BatchCursor) {
		for b, ok := shard.NextBatch(); ok; b, ok = shard.NextBatch() {
			consumed.Add(int64(b.Len()))
			b.Release()
		}
	})
	if got := consumed.Load(); got != n {
		t.Fatalf("consumed %d rows, want %d", got, n)
	}
}

// TestOrderedMergeDrainsInOrder: the merge cursor yields channel 0's
// chunks first, then channel 1's, regardless of how the concurrent
// producers interleave.
func TestOrderedMergeDrainsInOrder(t *testing.T) {
	leakcheck.Check(t)
	chans := make([]chan []rel.Tuple, 3)
	for i := range chans {
		chans[i] = make(chan []rel.Tuple, 1)
	}
	for i := len(chans) - 1; i >= 0; i-- { // start producers out of order
		go func(i int) {
			for j := 0; j < 3; j++ {
				chans[i] <- []rel.Tuple{rel.Ints(int64(10*i + j))}
			}
			close(chans[i])
		}(i)
	}
	cur := OrderedMergeChunks(nil, chans)
	var seen []int64
	for tp, ok := cur.Next(); ok; tp, ok = cur.Next() {
		seen = append(seen, tp[0].AsInt())
	}
	if len(seen) != 9 {
		t.Fatalf("merged %d tuples, want 9", len(seen))
	}
	for k, v := range seen {
		if want := int64(10*(k/3) + k%3); v != want {
			t.Fatalf("position %d: %d, want %d", k, v, want)
		}
	}
}

// TestStreamShardedRunsEveryShardOnce: the shard-aware path hands each
// pre-partitioned batch cursor to work exactly once, with the right
// index, across worker counts — including workers > shards and
// workers == 1.
func TestStreamShardedRunsEveryShardOnce(t *testing.T) {
	leakcheck.Check(t)
	for _, workers := range []int{1, 2, 4, 8} {
		const shards = 3
		cursors := make([]BatchCursor, shards)
		for q := range cursors {
			cursors[q] = rel.FromRows(1, []int64{int64(q)}).BatchScan()
		}
		var calls [shards]atomic.Int64
		got := make([]int64, shards)
		n := Executor{Workers: workers}.StreamShardedBatches(nil, cursors, func(q int, shard BatchCursor) {
			calls[q].Add(1)
			b, ok := shard.NextBatch()
			if !ok {
				t.Errorf("workers %d: shard %d empty", workers, q)
				return
			}
			got[q] = b.Value(0, 0).AsInt()
			b.Release()
		})
		if n != shards {
			t.Fatalf("workers %d: reported %d shards, want %d", workers, n, shards)
		}
		for q := range calls {
			if c := calls[q].Load(); c != 1 {
				t.Errorf("workers %d: shard %d processed %d times", workers, q, c)
			}
			if got[q] != int64(q) {
				t.Errorf("workers %d: shard %d saw cursor %d", workers, q, got[q])
			}
		}
	}
}
