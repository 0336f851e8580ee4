// Package engine provides the shared execution substrate for the fast
// paths of the library: value-interning dictionaries (rel.Value →
// dense uint32 ID) and a hash-partitioned parallel executor.
//
// The paper's algorithm comparisons (division in Proposition 26 and
// footnote 1, set joins in the introduction) are about constant
// factors as much as asymptotics: a hash division that allocates a
// key string per probe measures the allocator, not the algorithm.
// Interning replaces every string-keyed map on the hot paths with
// integer probes, and the executor shards group-keyed work (division
// groups, set-join groups) across a goroutine pool, merging
// per-partition results in deterministic partition order.
//
// Usage pattern of the parallel operators in internal/division and
// internal/setjoin:
//
//  1. build phase (sequential): intern the partitioning keys, compute
//     each item's partition with PartOf, and collect per-partition
//     index lists;
//  2. work phase (parallel): Executor.Run processes partitions on a
//     worker pool; workers only read the shared dictionaries;
//  3. merge phase (sequential): per-partition outputs concatenate in
//     partition order, so a run with W workers returns exactly the
//     same relation as the sequential algorithm.
package engine

import (
	"runtime"
	"sync"
	"sync/atomic"

	"radiv/internal/exec"
	"radiv/internal/rel"
)

// Interner is the value dictionary: rel.Value → dense uint32 ID. The
// implementation lives in package rel so that rel.Relation can use the
// same dictionary for its deduplication index without an import cycle;
// engine re-exports it and adds the per-database constructors.
type Interner = rel.Interner

// NewInterner returns an empty dictionary.
func NewInterner() *Interner { return rel.NewInterner() }

// ForStore builds the per-database dictionary for any rel.ReadStore
// backend: every value of the active domain of s is interned,
// relations in schema name order, tuples in insertion (scan) order,
// components left to right. The assignment is therefore deterministic
// for a deterministically built store, and identical across backends
// holding the same data — sharding does not change dictionary IDs.
func ForStore(s rel.ReadStore) *Interner {
	in := NewInterner()
	for _, name := range s.Schema().Names() {
		c := s.View(name).Scan()
		for t, ok := c.Next(); ok; t, ok = c.Next() {
			for _, v := range t {
				in.Intern(v)
			}
		}
	}
	return in
}

// ForDatabase is ForStore on the in-memory database, kept for call
// sites that hold the concrete type.
func ForDatabase(d *rel.Database) *Interner { return ForStore(d) }

// Executor is a worker pool for partitioned execution. The zero value
// is valid and uses one worker per available CPU.
type Executor struct {
	// Workers is the number of goroutines; values <= 0 mean
	// runtime.GOMAXPROCS(0).
	Workers int
}

// WorkerCount resolves the effective number of workers.
func (e Executor) WorkerCount() int {
	if e.Workers > 0 {
		return e.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// PartitionCount returns the number of partitions to shard into: a
// small multiple of the worker count so that skewed partitions can be
// rebalanced by work stealing, capped to keep per-partition overhead
// negligible. It depends only on the worker count, keeping partition
// assignment — and hence merge order — deterministic for a given
// configuration.
func (e Executor) PartitionCount() int {
	p := 4 * e.WorkerCount()
	if p < 1 {
		p = 1
	}
	if p > 256 {
		p = 256
	}
	return p
}

// Run invokes f(i) exactly once for every i in [0, tasks), spreading
// the calls over the worker pool. Tasks are claimed atomically, so
// uneven task costs balance across workers. Run returns when every
// started task has finished. With one worker (or one task) it
// degenerates to a sequential loop with no goroutine overhead.
//
// g governs the pool; nil means ungoverned. Governed, a panicking task
// aborts the query (recording the first cause) instead of killing the
// process, and workers stop claiming tasks once the query is aborted —
// callers check g.Err() for the outcome.
func (e Executor) Run(g *exec.Governor, tasks int, f func(task int)) {
	if tasks <= 0 {
		return
	}
	run := f
	if g != nil {
		run = func(i int) {
			defer func() {
				if r := recover(); r != nil {
					g.AbortRecovered(r)
				}
			}()
			f(i)
		}
	}
	w := min(e.WorkerCount(), tasks)
	if w <= 1 {
		for i := 0; i < tasks && !g.Aborted(); i++ {
			run(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(w)
	for range w {
		go func() {
			defer wg.Done()
			for !g.Aborted() {
				i := int(next.Add(1)) - 1
				if i >= tasks {
					return
				}
				run(i)
			}
		}()
	}
	wg.Wait()
}

// PartOf maps an interned ID to a partition in [0, parts). The ID is
// avalanche-mixed first so that dense dictionary IDs (0, 1, 2, ...)
// spread evenly rather than striping.
func PartOf(id uint32, parts int) int {
	if parts <= 1 {
		return 0
	}
	x := uint64(id) + 0x9e3779b97f4a7c15
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return int(x % uint64(parts))
}

// PartitionByFirst shards the tuples of a binary-or-wider relation by
// the interned ID of their first component: it interns every group
// key into in (sequentially, so IDs are deterministic) and returns,
// per partition, the indices of the tuples assigned to it. All tuples
// sharing a group key land in the same partition, which is what makes
// per-partition group processing exact rather than approximate.
func PartitionByFirst(in *Interner, tuples []rel.Tuple, parts int) [][]int32 {
	out := make([][]int32, parts)
	for i, t := range tuples {
		q := PartOf(in.Intern(t[0]), parts)
		out[q] = append(out[q], int32(i))
	}
	return out
}
