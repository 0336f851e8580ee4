package shard

// This file is the shard-aware execution layer: division and the set
// joins run shard-locally — each shard's worker touches only its own
// store plus read-only broadcast state — and a sequential merge walks
// the routing dictionary's group IDs in order. Because a relation's
// router assigns IDs in first-occurrence order, gid order is exactly
// the group order the sequential algorithms emit in, so the merged
// result is byte-identical to the single-store run at every shard
// count (the same argument division.ParallelHash.DivideStream makes
// for its worker partitions). With one shard every entry point
// delegates straight to the sequential algorithm on the underlying
// store: no routing happened at load time and none is paid here.
//
// Every entry point takes a Source: the live *Database (the writer's
// uncommitted view, safe when nothing is concurrently mutating) or a
// published *Snapshot (safe unconditionally — run on snapshot N while
// the writer loads N+1). Either way the source is only read, and the
// results are byte-identical: a snapshot scans, routes and merges
// exactly like the live store that published it.

import (
	"time"

	"radiv/internal/division"
	"radiv/internal/engine"
	"radiv/internal/exec"
	"radiv/internal/rel"
	"radiv/internal/setjoin"
)

// guardedBatches interposes the query governor at a shard cursor's
// pull boundary: the check runs before the pull, when the worker
// frame holds no pooled batch, so a budget trip or cancellation
// unwinds without stranding a batch. One branch per batch.
type guardedBatches struct {
	in engine.BatchCursor
	g  *exec.Governor
}

func (c *guardedBatches) NextBatch() (*rel.Batch, bool) {
	c.g.Check()
	return c.in.NextBatch()
}

// guardShard wraps cur with a governor check per NextBatch; with a
// nil governor it returns cur unchanged, so ungoverned runs pay
// nothing.
func guardShard(g *exec.Governor, cur engine.BatchCursor) engine.BatchCursor {
	if g == nil {
		return cur
	}
	return &guardedBatches{in: cur, g: g}
}

// mergeCheckStride is how many merge-loop iterations run between
// governor checks on the coordinating goroutine.
const mergeCheckStride = 64

// Stats reports the cost anatomy of one sharded run: what each shard
// held and what the merge cost.
type Stats struct {
	// ShardResident is, per shard, the peak number of auxiliary
	// entries (group states, bitmap words, index entries) the
	// shard-local work held — the per-shard resident memory the ST3
	// experiment plots.
	ShardResident []int
	// Merged counts the entries the gid-ordered merge phase examined.
	Merged int
	// MergeTime is the wall time of the merge phase alone — the
	// coordination overhead sharding adds on top of the shard-local
	// work. Zero for single-shard runs, which have no merge.
	MergeTime time.Duration
}

// arityOf checks a relation's arity with a shard-prefixed panic,
// through the same rel.CheckView the evaluators use.
func arityOf(db Source, name string, want int) {
	rel.CheckView(db, name, want, "shard")
}

// Divide computes rName ÷ sName shard-locally: the divisor is
// materialized once into a shared read-only dictionary
// (division.DivisorTable), each shard runs the Graefe bitmap scheme
// over its local dividend cursor on the worker pool
// (engine.StreamShardedBatches), and the merge emits qualifying groups in the
// dividend router's gid order — the sequential Hash emission order, so
// the result is byte-identical to division.Hash on the merged
// relations at every shard count. workers <= 0 means one per CPU.
func Divide(db Source, rName, sName string, sem division.Semantics, workers int) (*rel.Relation, Stats) {
	return DivideGov(nil, db, rName, sName, sem, workers)
}

// DivideGov is Divide under a query governor (nil means ungoverned,
// with identical behavior): every shard worker checks the governor
// once per pulled batch, a panicking worker aborts the run instead of
// killing the process, and the merge loop checks periodically. The
// resident budget (exec.Limits.MaxResident) is enforced against the
// shard phase's held state — ShardResident summed over the shards,
// which run concurrently — once the shards finish, before the merge:
// the bitmap scheme's per-shard state is only known at shard
// exhaustion. On abort it unwinds with the abort panic only the
// boundary Governor.Recover catches — callers are governed cores or
// API boundaries, never bare user code.
func DivideGov(g *exec.Governor, db Source, rName, sName string, sem division.Semantics, workers int) (*rel.Relation, Stats) {
	arityOf(db, rName, 2)
	arityOf(db, sName, 1)
	g.Check()
	if db.NumShards() == 1 {
		sRel := db.ShardRel(0, sName)
		out, st := division.Hash{}.Divide(db.ShardRel(0, rName), sRel, sem)
		// Hash's MaxMemoryTuples includes the divisor table; subtract
		// it so the figure counts the same thing DivideShardBatches reports
		// for multi-shard runs (group state only — the divisor is
		// broadcast, not shard-local) and the column is comparable
		// across shard counts.
		held := st.MaxMemoryTuples - sRel.Len()
		g.CheckResident(held)
		return out, Stats{ShardResident: []int{held}}
	}
	sRel, _ := rel.Materialized(db, sName) // broadcast side, read-only
	dt := division.NewDivisorTable(sRel)
	n := db.NumShards()
	// Shard-local dividends flow as columnar batches straight off the
	// relations' stored ID columns: no tuple decoding, no re-interning —
	// each worker runs the vectorized bitmap scheme on flat uint32
	// columns.
	cursors := make([]engine.BatchCursor, n)
	for q := range cursors {
		cursors[q] = guardShard(g, db.ShardRel(q, rName).BatchScan())
	}
	qualified := make([]map[rel.Value]bool, n)
	resident := make([]int, n)
	engine.Executor{Workers: workers}.StreamShardedBatches(g, cursors, func(q int, shard engine.BatchCursor) {
		var st division.Stats
		qualified[q], st = dt.DivideShardBatches(shard, sem)
		resident[q] = st.MaxMemoryTuples
	})
	g.Check() // rethrow a worker abort before merging partial results
	held := 0
	for _, r := range resident {
		held += r
	}
	g.CheckResident(held)
	st := Stats{ShardResident: resident}
	mergeStart := time.Now()
	rt := db.Router(rName)
	out := rel.NewRelationSized(1, rt.Len())
	for gid := 0; gid < rt.Len(); gid++ {
		if gid%mergeCheckStride == 0 {
			g.Check()
		}
		st.Merged++
		v := rt.Value(uint32(gid))
		if qualified[engine.PartOf(uint32(gid), n)][v] {
			out.Add(rel.Tuple{v})
		}
	}
	st.MergeTime = time.Since(mergeStart)
	return out, st
}

// ContainmentJoin computes the set-containment join rName ⋈[B⊇D] sName
// shard-locally: the S side is materialized and grouped once
// (broadcast, read-only), each shard joins its local R groups against
// it with the signature nested loop, and the merge concatenates each
// group's pairs in the R router's gid order — reproducing the
// sequential setjoin.SignatureContainment emission byte for byte at
// every shard count. workers <= 0 means one per CPU.
func ContainmentJoin(db Source, rName, sName string, workers int) (*rel.Relation, Stats) {
	return shardedSetJoin(db, rName, sName, workers, true)
}

// EqualityJoin computes the set-equality join rName ⋈[B=D] sName
// shard-locally: each shard builds a canonical-key index over its
// local R groups, the broadcast S side probes every shard's index, and
// the merge interleaves per-probe results by the R groups' global gid
// rank — reproducing the sequential setjoin.HashEquality emission
// (S-major, R insertion order within a probe) byte for byte at every
// shard count. workers <= 0 means one per CPU.
func EqualityJoin(db Source, rName, sName string, workers int) (*rel.Relation, Stats) {
	return shardedSetJoin(db, rName, sName, workers, false)
}

// groupsHeld counts the entries a shard's group list pins: one per
// group plus its elements — the R-side state of that shard's join.
func groupsHeld(gs []*setjoin.Group) int {
	held := 0
	for _, g := range gs {
		held += 1 + len(g.Elems)
	}
	return held
}

func shardedSetJoin(db Source, rName, sName string, workers int, containment bool) (*rel.Relation, Stats) {
	arityOf(db, rName, 2)
	arityOf(db, sName, 2)
	if db.NumShards() == 1 {
		rG, sG := setjoin.Groups(db.ShardRel(0, rName)), setjoin.Groups(db.ShardRel(0, sName))
		var out *rel.Relation
		if containment {
			out, _ = setjoin.SignatureContainment{}.Join(rG, sG)
		} else {
			out, _ = setjoin.HashEquality{}.Join(rG, sG)
		}
		return out, Stats{ShardResident: []int{groupsHeld(rG)}}
	}
	sRel, _ := rel.Materialized(db, sName) // broadcast side, read-only
	sGroups := setjoin.Groups(sRel)
	n := db.NumShards()
	rt := db.Router(rName)
	rank := func(v rel.Value) uint32 {
		id, _ := rt.ID(v) // every local group key was interned at Add time
		return id
	}
	containPairs := make([]map[rel.Value][]rel.Tuple, n)
	eqPairs := make([][][]setjoin.RankedPair, n)
	resident := make([]int, n)
	engine.Executor{Workers: workers}.Run(nil, n, func(q int) {
		// Shard-local R sides flow as columnar batches straight off the
		// relations' stored ID columns into the group builder — no tuple
		// decoding on the grouping pass, and each worker's translation
		// cache only reads the shard's sealed dictionaries.
		rGroups := setjoin.GroupsFromBatches(db.ShardRel(q, rName).BatchScan())
		resident[q] = groupsHeld(rGroups)
		if containment {
			containPairs[q], _ = setjoin.ShardContainment(rGroups, sGroups)
		} else {
			eqPairs[q], _ = setjoin.ShardEquality(rGroups, sGroups, rank)
		}
	})
	st := Stats{ShardResident: resident}
	mergeStart := time.Now()
	// The merge's output cardinality is the sum of the per-shard pair
	// lists: size the sink exactly, so the gid-ordered splice never
	// grows a map.
	pairs := 0
	for q := 0; q < n; q++ {
		if containment {
			for _, ps := range containPairs[q] {
				pairs += len(ps)
			}
		} else {
			for _, ps := range eqPairs[q] {
				pairs += len(ps)
			}
		}
	}
	out := rel.NewRelationSized(2, pairs)
	if containment {
		// R-major merge: walk the dividend router's gids in order and
		// splice in each group's pair list from its owning shard.
		for gid := 0; gid < rt.Len(); gid++ {
			st.Merged++
			v := rt.Value(uint32(gid))
			for _, p := range containPairs[engine.PartOf(uint32(gid), n)][v] {
				out.Add(p)
			}
		}
		st.MergeTime = time.Since(mergeStart)
		return out, st
	}
	// S-major merge: per probe position, interleave the shards' rank-
	// ascending pair lists into global rank order.
	heads := make([]int, n) // per-shard cursor into eqPairs[q][si]
	for si := range sGroups {
		for q := range heads {
			heads[q] = 0
		}
		for {
			best, bq := uint32(0), -1
			for q := 0; q < n; q++ {
				if heads[q] < len(eqPairs[q][si]) {
					if r := eqPairs[q][si][heads[q]].Rank; bq < 0 || r < best {
						best, bq = r, q
					}
				}
			}
			if bq < 0 {
				break
			}
			st.Merged++
			out.Add(eqPairs[bq][si][heads[bq]].Pair)
			heads[bq]++
		}
	}
	st.MergeTime = time.Since(mergeStart)
	return out, st
}
