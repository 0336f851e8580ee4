package engine

import (
	"sync"
	"testing"

	"radiv/internal/rel"
)

// TestRoutedExchangeReadsSnapshotDict pins the snapshot contract on
// the routed exchange, under -race: workers decode rows against a
// published snapshot's dictionary while the router is still routing —
// the exact access pattern the old dictionary-quiescence law banned
// and sealing legalizes — and while a writer concurrently publishes
// later epochs of the same store. The workers' decoded sums must equal
// the sequential computation over the snapshot.
func TestRoutedExchangeReadsSnapshotDict(t *testing.T) {
	w := rel.NewEpoch(rel.NewSchema(map[string]int{"R": 2}))
	for i := int64(0); i < 3000; i++ {
		w.AddInts("R", i%97, i)
	}
	snap := w.Publish()
	r := snap.Rel("R")
	dict := r.Interner() // sealed: safe to read from any goroutine

	want := int64(0)
	c := r.Scan()
	for tu, ok := c.Next(); ok; tu, ok = c.Next() {
		want += tu[0].AsInt() + tu[1].AsInt()
	}

	// A writer keeps interning into later epochs of the same store
	// while the exchange runs: copy-on-write must isolate the sealed
	// dictionary the workers read.
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := int64(0); ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			w.AddInts("R", 200+i, -i)
			if i%64 == 0 {
				w.Publish()
			}
		}
	}()

	for _, workers := range []int{2, 4} {
		ex := Executor{Workers: workers}
		sums := make([]int64, workers)
		ex.StreamPartitionedBatches(nil, r.BatchScan(), func(b *rel.Batch, row int) int {
			return PartOf(b.Col(0)[row], workers)
		}, func(q int, shard BatchCursor) {
			for b, ok := shard.NextBatch(); ok; b, ok = shard.NextBatch() {
				for row := 0; row < b.Len(); row++ {
					// Worker-side dictionary reads mid-exchange: legal on
					// sealed snapshot dictionaries.
					sums[q] += dict.Value(b.Col(0)[row]).AsInt() + b.Value(1, row).AsInt()
				}
				b.Release()
			}
		})
		got := int64(0)
		for _, s := range sums {
			got += s
		}
		if got != want {
			t.Fatalf("workers %d: decoded sum %d, want %d", workers, got, want)
		}
	}
	close(stop)
	wg.Wait()
}
