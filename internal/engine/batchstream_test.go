package engine

import (
	"sync"
	"testing"

	"radiv/internal/leakcheck"
	"radiv/internal/rel"
)

// scanOf packs tuples (duplicates preserved) into a batch stream
// through the interning adapter.
func scanOf(tuples []rel.Tuple, arity, size int) BatchCursor {
	i := 0
	next := func() (rel.Tuple, bool) {
		if i >= len(tuples) {
			return nil, false
		}
		t := tuples[i]
		i++
		return t, true
	}
	return rel.ToBatches(funcCursor(next), arity, size)
}

type funcCursor func() (rel.Tuple, bool)

func (f funcCursor) Next() (rel.Tuple, bool) { return f() }

// TestStreamPartitionedBatchesRoutesAll: every row reaches exactly the
// partition route assigns, in input order, across batch sizes and
// worker counts; and no pooled batch leaks. The route function keys on
// interned first-column IDs modulo the worker count; the expectation
// below reconstructs the same assignment, which works because
// ToBatches interns in row order.
func TestStreamPartitionedBatchesRoutesAll(t *testing.T) {
	leakcheck.Check(t)
	var tuples []rel.Tuple
	for i := 0; i < 1000; i++ {
		tuples = append(tuples, rel.Ints(int64(i%37), int64(i)))
	}
	for _, workers := range []int{1, 2, 4} {
		for _, size := range []int{1, 64, 1024} {
			live, _, _ := rel.BatchPoolStats()
			ex := Executor{Workers: workers}
			// Workers collect raw IDs plus the dictionary pointer and
			// decode only after the exchange returns: the adapter's
			// dictionary is still being written by the router while
			// shards flow, so it must not be read concurrently (the
			// quiescence constraint in the StreamPartitionedBatches doc).
			type idRow struct {
				dict   *rel.Interner
				c0, c1 uint32
			}
			rows := make([][]idRow, workers)
			var mu sync.Mutex
			parts := ex.StreamPartitionedBatches(nil, scanOf(tuples, 2, size), func(b *rel.Batch, row int) int {
				return int(b.Col(0)[row]) % ex.WorkerCount()
			}, func(q int, shard BatchCursor) {
				var local []idRow
				for b, ok := shard.NextBatch(); ok; b, ok = shard.NextBatch() {
					for row := 0; row < b.Len(); row++ {
						local = append(local, idRow{b.Dict(0), b.Col(0)[row], b.Col(1)[row]})
					}
					b.Release()
				}
				mu.Lock()
				rows[q] = local
				mu.Unlock()
			})
			got := make([][]rel.Tuple, workers)
			for q := range rows {
				for _, r := range rows[q] {
					got[q] = append(got[q], rel.Tuple{r.dict.Value(r.c0), r.dict.Value(r.c1)})
				}
			}
			if parts != workers {
				t.Fatalf("workers=%d: %d partitions", workers, parts)
			}
			if after, _, _ := rel.BatchPoolStats(); after != live {
				t.Fatalf("workers=%d size=%d: batch leak (%d -> %d live)", workers, size, live, after)
			}
			// Reconstruct per-partition expectations. Routing keys are
			// the interned IDs of the first column in first-occurrence
			// order, matching the adapter's dictionary assignment.
			dict := rel.NewInterner()
			want := make([][]rel.Tuple, workers)
			for _, tp := range tuples {
				q := int(dict.Intern(tp[0])) % workers
				want[q] = append(want[q], tp)
			}
			total := 0
			for q := 0; q < workers; q++ {
				if len(got[q]) != len(want[q]) {
					t.Fatalf("workers=%d size=%d q=%d: %d rows, want %d", workers, size, q, len(got[q]), len(want[q]))
				}
				for i := range want[q] {
					if !want[q][i].Equal(got[q][i]) {
						t.Fatalf("workers=%d size=%d q=%d row %d: %v, want %v", workers, size, q, i, got[q][i], want[q][i])
					}
				}
				total += len(got[q])
			}
			if total != len(tuples) {
				t.Fatalf("workers=%d size=%d: %d rows total, want %d", workers, size, total, len(tuples))
			}
		}
	}
}

// TestOrderedMergeChunks: chunk channels flatten in channel-then-chunk
// order.
func TestOrderedMergeChunks(t *testing.T) {
	leakcheck.Check(t)
	chans := make([]chan []rel.Tuple, 2)
	for i := range chans {
		chans[i] = make(chan []rel.Tuple, 4)
	}
	chans[0] <- []rel.Tuple{rel.Ints(1), rel.Ints(2)}
	chans[0] <- []rel.Tuple{rel.Ints(3)}
	close(chans[0])
	chans[1] <- []rel.Tuple{rel.Ints(4)}
	close(chans[1])
	var got []int64
	cur := OrderedMergeChunks(nil, chans)
	for tp, ok := cur.Next(); ok; tp, ok = cur.Next() {
		got = append(got, tp[0].AsInt())
	}
	want := []int64{1, 2, 3, 4}
	if len(got) != len(want) {
		t.Fatalf("merged %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("merged %v, want %v", got, want)
		}
	}
}
