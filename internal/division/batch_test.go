package division

import (
	"testing"

	"radiv/internal/rel"
	"radiv/internal/workload"
)

// TestDivideShardBatchesMatchesHash: the batched shard divider, fed a
// whole dividend as one shard, must qualify exactly the groups the
// sequential Hash division returns, read and probe every row once per
// probe, hold one entry plus one divisor bitmap per distinct group,
// and report identical stats at every batch size, on randomized
// workloads under both semantics.
func TestDivideShardBatchesMatchesHash(t *testing.T) {
	for seed := int64(0); seed < 15; seed++ {
		r, s := workload.RandomDivision(seed).Generate()
		dt := NewDivisorTable(s)
		distinct := make(map[rel.Value]bool)
		for _, tp := range r.Tuples() {
			distinct[tp[0]] = true
		}
		g := len(distinct)
		wantMem := g + g*((s.Len()+63)/64)
		for _, sem := range []Semantics{Containment, Equality} {
			want, _ := Hash{}.Divide(r, s, sem)
			_, base := dt.DivideShardBatches(r.BatchScanSized(1), sem)
			for _, size := range []int{1, 64, 1024} {
				got, gotSt := dt.DivideShardBatches(r.BatchScanSized(size), sem)
				if len(got) != want.Len() {
					t.Fatalf("seed %d %s size=%d: %d qualified, want %d", seed, sem, size, len(got), want.Len())
				}
				for _, tp := range want.Tuples() {
					if !got[tp[0]] {
						t.Fatalf("seed %d %s size=%d: group %v missing", seed, sem, size, tp[0])
					}
				}
				if gotSt.TuplesRead != r.Len() || gotSt.Probes != 2*r.Len() {
					t.Errorf("seed %d %s size=%d: stats read=%d probes=%d, want read=%d probes=%d",
						seed, sem, size, gotSt.TuplesRead, gotSt.Probes, r.Len(), 2*r.Len())
				}
				if gotSt.MaxMemoryTuples != wantMem {
					t.Errorf("seed %d %s size=%d: MaxMemoryTuples=%d, want %d groups + bitmaps = %d",
						seed, sem, size, gotSt.MaxMemoryTuples, g, wantMem)
				}
				if gotSt != base {
					t.Errorf("seed %d %s size=%d: stats %+v differ from batch 1's %+v", seed, sem, size, gotSt, base)
				}
			}
		}
	}
}

// TestDivideShardBatchesMixedDictionaries feeds batches whose columns
// come from two different dictionaries mid-stream (as the exchange can
// produce after a staging flush), checking the translation caches
// handle a dictionary change.
func TestDivideShardBatchesMixedDictionaries(t *testing.T) {
	r1 := rel.FromRows(2, []int64{1, 10}, []int64{1, 11}, []int64{2, 10})
	r2 := rel.FromRows(2, []int64{2, 11}, []int64{3, 10}, []int64{3, 11})
	s := rel.FromRows(1, []int64{10}, []int64{11})
	dt := NewDivisorTable(s)
	got, _ := dt.DivideShardBatches(&concatBatches{cs: []rel.BatchCursor{r1.BatchScan(), r2.BatchScan()}}, Containment)
	// Groups whole across the two sub-streams: 1 (10, 11), 3 (10, 11)
	// qualify; 2 has 10 in one stream and 11 in the other — the group
	// state must merge across dictionaries, so 2 qualifies too.
	for _, v := range []int64{1, 2, 3} {
		if !got[rel.Int(v)] {
			t.Fatalf("group %d should qualify: got %v", v, got)
		}
	}
}

type concatBatches struct {
	cs []rel.BatchCursor
	i  int
}

func (c *concatBatches) NextBatch() (*rel.Batch, bool) {
	for c.i < len(c.cs) {
		if b, ok := c.cs[c.i].NextBatch(); ok {
			return b, true
		}
		c.i++
	}
	return nil, false
}
