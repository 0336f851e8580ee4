// Package a reproduces the worker-interning hazard of PR 5's batched
// exchange: a worker mutating a dictionary shared with the router (or
// with sibling workers) races rel.Interner's maps. The legal patterns
// — interning on the route callback, worker-local dictionaries, and
// (since the snapshot epochs landed) reads of captured dictionaries on
// every path — must stay silent.
package a

import (
	"radiv/internal/engine"
	"radiv/internal/exec"
	"radiv/internal/rel"
)

// InternInWorker is the historical bug shape: the exchange moves
// batches while the packing dictionary is still being written, and a
// worker interning into it races the router. Reading the captured
// dictionary is no longer flagged — under the snapshot contract the
// dictionaries a worker is handed are sealed, and the producer of a
// live packing dictionary is responsible for re-encoding before the
// exchange (division.DivideStream's pattern).
func InternInWorker(ex engine.Executor, in engine.BatchCursor, dict *rel.Interner, sink *rel.Relation, s rel.Store) {
	ex.StreamPartitionedBatches(nil, in, func(b *rel.Batch, row int) int {
		return int(dict.Intern(b.Value(0, row))) % 2 // route runs on the router goroutine: interning is safe here
	}, func(q int, shard engine.BatchCursor) {
		for b, ok := shard.NextBatch(); ok; b, ok = shard.NextBatch() {
			for row := 0; row < b.Len(); row++ {
				t := rel.Tuple{b.Value(0, row)}
				dict.Intern(t[0])    // want `Interner.Intern on a captured dictionary`
				sink.Add(t)          // want `Relation.Add interning into a captured relation`
				s.Add("out", t)      // want `Store.Add interning into a captured store`
				_, _ = dict.ID(t[0]) // reads of a captured dictionary are legal: sealed under the snapshot contract
			}
			b.Release()
		}
	})
}

// IDMapInWorker interns through a translation cache whose target
// dictionary is captured — the same race one indirection later.
func IDMapInWorker(ex engine.Executor, in engine.BatchCursor, xl *rel.IDMap) {
	ex.StreamPartitionedBatches(nil, in, func(b *rel.Batch, row int) int {
		return int(b.Col(0)[row]) % 2
	}, func(q int, shard engine.BatchCursor) {
		for b, ok := shard.NextBatch(); ok; b, ok = shard.NextBatch() {
			xl.Intern(b.Dict(0), b.Col(0)[0]) // want `IDMap.Intern interning into a captured target dictionary`
			b.Release()
		}
	})
}

// WorkerLocal builds every dictionary inside the callback: private to
// the worker, outside the contract.
func WorkerLocal(ex engine.Executor, in engine.BatchCursor, results []*rel.Relation) {
	ex.StreamPartitionedBatches(nil, in, func(b *rel.Batch, row int) int { return 0 }, func(q int, shard engine.BatchCursor) {
		local := rel.NewInterner()
		out := rel.NewRelation(1)
		for b, ok := shard.NextBatch(); ok; b, ok = shard.NextBatch() {
			for row := 0; row < b.Len(); row++ {
				v := b.Value(0, row)
				local.Intern(v)
				out.Add(rel.Tuple{v})
			}
			b.Release()
		}
		results[q] = out
	})
}

// ShardedReads probes a captured dictionary on the pre-partitioned
// path: no router is interning, the dictionaries are quiescent, and
// read-only probing is the documented safe pattern.
func ShardedReads(ex engine.Executor, shards []engine.BatchCursor, dict *rel.Interner, hits []int) {
	ex.StreamShardedBatches(nil, shards, func(q int, shard engine.BatchCursor) {
		for b, ok := shard.NextBatch(); ok; b, ok = shard.NextBatch() {
			for row := 0; row < b.Len(); row++ {
				if _, ok := dict.ID(b.Value(0, row)); ok {
					hits[q]++
				}
			}
			b.Release()
		}
	})
}

// ShardedIntern still may not mutate a captured dictionary even
// without a router: the sibling workers share it.
func ShardedIntern(ex engine.Executor, shards []engine.BatchCursor, dict *rel.Interner) {
	ex.StreamShardedBatches(nil, shards, func(q int, shard engine.BatchCursor) {
		for b, ok := shard.NextBatch(); ok; b, ok = shard.NextBatch() {
			for row := 0; row < b.Len(); row++ {
				dict.Intern(b.Value(0, row)) // want `Interner.Intern on a captured dictionary`
			}
			b.Release()
		}
	})
}

// GovernedInternInWorker is the production call shape — a live query
// governor as the first argument, as division.DivideStream passes it —
// around the historical bug: the governed exchange is the same method,
// so the worker's interning is flagged all the same.
func GovernedInternInWorker(g *exec.Governor, ex engine.Executor, in engine.BatchCursor, dict *rel.Interner) {
	ex.StreamPartitionedBatches(g, in, func(b *rel.Batch, row int) int {
		return engine.PartOf(b.Col(0)[row], 2)
	}, func(q int, shard engine.BatchCursor) {
		for b, ok := shard.NextBatch(); ok; b, ok = shard.NextBatch() {
			dict.Intern(b.Value(0, 0)) // want `Interner.Intern on a captured dictionary`
			b.Release()
		}
	})
}

// GovernedShardedReads mirrors shard.DivideGov's governed sharded
// exchange: workers probe a captured, sealed dictionary and write only
// their own result slot — silent.
func GovernedShardedReads(g *exec.Governor, ex engine.Executor, shards []engine.BatchCursor, dict *rel.Interner, hits []int) {
	ex.StreamShardedBatches(g, shards, func(q int, shard engine.BatchCursor) {
		for b, ok := shard.NextBatch(); ok; b, ok = shard.NextBatch() {
			for row := 0; row < b.Len(); row++ {
				if _, ok := dict.ID(b.Value(0, row)); ok {
					hits[q]++
				}
			}
			b.Release()
		}
	})
}
