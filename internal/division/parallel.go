package division

import (
	"fmt"

	"radiv/internal/engine"
	"radiv/internal/exec"
	"radiv/internal/rel"
)

// ParallelHash is hash division over the partitioned parallel
// executor of internal/engine: R is sharded by the interned ID of the
// group key, so every candidate group lives in exactly one partition
// and partitions divide independently against the shared divisor
// dictionary. Per-partition results concatenate in partition order,
// which makes the output deterministic for a fixed worker count and
// set-equal to the sequential Hash result for every worker count.
type ParallelHash struct {
	// Workers is the goroutine pool size; values <= 0 mean one worker
	// per CPU.
	Workers int
}

// Name implements Algorithm.
func (ParallelHash) Name() string { return "parallel-hash" }

// Divide implements Algorithm.
func (p ParallelHash) Divide(r, s *rel.Relation, sem Semantics) (*rel.Relation, Stats) {
	checkInputs(r, s)
	ex := engine.Executor{Workers: p.Workers}
	if ex.WorkerCount() <= 1 {
		// One worker cannot beat the sequential algorithm; skip the
		// partitioning overhead entirely.
		return Hash{}.Divide(r, s, sem)
	}

	// Build phase (sequential): divisor dictionary and partition map.
	var build Stats
	slots := rel.NewInterner() // S value -> dense slot, shared read-only
	for _, t := range s.Tuples() {
		build.TuplesRead++
		build.Probes++
		slots.Intern(t[0])
	}
	need := slots.Len()
	words := (need + 63) / 64
	rt := r.Tuples()
	gids := rel.NewInterner() // group value -> ID; drives partitioning
	parts := ex.PartitionCount()
	partIdx := engine.PartitionByFirst(gids, rt, parts)

	// Work phase: each partition runs the Graefe bitmap scheme on its
	// shard, probing only the shared read-only dictionaries.
	qualified := make([][]rel.Value, parts)
	partStats := make([]Stats, parts)
	ex.Run(nil, parts, func(q int) {
		st := &partStats[q]
		local := make(map[uint32]*divGroup) // global group ID -> state
		var order []uint32
		for _, i := range partIdx[q] {
			t := rt[i]
			st.TuplesRead++
			st.Probes++
			gid, _ := gids.ID(t[0]) // present: interned during partitioning
			g := local[gid]
			if g == nil {
				g = &divGroup{rep: t[0], seen: make([]uint64, words)}
				local[gid] = g
				order = append(order, gid)
			}
			st.Probes++
			if slot, ok := slots.ID(t[1]); ok {
				g.mark(slot)
			} else {
				g.extras++
			}
		}
		st.MaxMemoryTuples = len(local) + len(local)*words
		for _, gid := range order {
			g := local[gid]
			if g.hits != need {
				continue
			}
			if sem == Equality && g.extras > 0 {
				continue
			}
			qualified[q] = append(qualified[q], g.rep)
		}
	})

	// Merge phase: concatenate in partition order; sum the stats. All
	// partitions are resident at once, so memory adds up (plus the
	// shared divisor table).
	st := build
	st.MaxMemoryTuples = s.Len()
	for q := range partStats {
		st.Comparisons += partStats[q].Comparisons
		st.Probes += partStats[q].Probes
		st.TuplesRead += partStats[q].TuplesRead
		st.MaxMemoryTuples += partStats[q].MaxMemoryTuples
	}
	out := rel.NewRelation(1)
	for _, reps := range qualified {
		for _, rep := range reps {
			out.Add(rel.Tuple{rep})
		}
	}
	return out, st
}

// DivisorTable is the shared read-only divisor dictionary of one hash
// division: every divisor value gets a dense slot (its interned ID),
// so per-shard workers probe integers and mark bitmap bits without
// touching shared mutable state. It is the build-phase artifact that
// DivideStream's workers and the shard-local division in
// internal/shard both divide against.
type DivisorTable struct {
	slots *rel.Interner
	need  int
	words int
}

// NewDivisorTable interns the divisor set. S must be unary.
func NewDivisorTable(s *rel.Relation) *DivisorTable {
	if s.Arity() != 1 {
		panic(fmt.Sprintf("division: S has arity %d, want 1", s.Arity()))
	}
	slots := rel.NewInterner()
	for _, t := range s.Tuples() {
		slots.Intern(t[0])
	}
	return &DivisorTable{slots: slots, need: slots.Len(), words: (slots.Len() + 63) / 64}
}

// DivideShardBatches runs the Graefe bitmap scheme on one shard of the
// dividend: the shard arrives as columnar batches of binary (group,
// element) ID columns, groups accumulate locally in first-occurrence
// order, and the returned set holds the group keys that qualify under
// the semantics. Both probes run through flat per-dictionary
// translation caches — after the first occurrence of a group or
// element value, a row costs two array loads instead of two
// value-keyed map probes. Correctness requires the shard to hold its
// groups whole — every tuple of a qualifying group must flow through
// the same call — which is exactly the invariant hash partitioning on
// the group key establishes. Concurrent calls are safe: the divisor
// table is read-only and the caches are call-local.
func (dt *DivisorTable) DivideShardBatches(shard engine.BatchCursor, sem Semantics) (map[rel.Value]bool, Stats) {
	var st Stats
	var groups []*divGroup
	groupOf := rel.NewIDMap(rel.NewInterner()) // group value -> dense local index
	slotOf := make(map[*rel.Interner][]int32)  // element id -> divisor slot+2, 1 = absent
	for b, ok := shard.NextBatch(); ok; b, ok = shard.NextBatch() {
		if b.Arity() != 2 {
			panic(fmt.Sprintf("division: R batch has arity %d, want 2", b.Arity()))
		}
		c0, c1 := b.Col(0), b.Col(1)
		d0, d1 := b.Dict(0), b.Dict(1)
		slots := slotOf[d1]
		if len(slots) < d1.Len() {
			grown := make([]int32, d1.Len())
			copy(grown, slots)
			slots = grown
			slotOf[d1] = slots
		}
		for row := range c0 {
			st.TuplesRead++
			st.Probes++
			gi := groupOf.Intern(d0, c0[row])
			if int(gi) == len(groups) {
				groups = append(groups, &divGroup{rep: d0.Value(c0[row]), seen: make([]uint64, dt.words)})
			}
			g := groups[gi]
			st.Probes++
			s := slots[c1[row]]
			if s == 0 {
				if slot, ok := dt.slots.ID(d1.Value(c1[row])); ok {
					s = int32(slot) + 2
				} else {
					s = 1
				}
				slots[c1[row]] = s
			}
			if s >= 2 {
				g.mark(uint32(s - 2))
			} else {
				g.extras++
			}
		}
		b.Release()
	}
	st.MaxMemoryTuples = len(groups) + len(groups)*dt.words
	qualified := make(map[rel.Value]bool, len(groups))
	for _, g := range groups {
		if g.hits != dt.need {
			continue
		}
		if sem == Equality && g.extras > 0 {
			continue
		}
		qualified[g.rep] = true
	}
	return qualified, st
}

// DivideStream is cursor-fed hash division: the dividend arrives as a
// stream of binary tuples and flows through the engine exchange —
// router goroutine, bounded per-partition channels, one partition per
// worker — so no partition index is materialized and partitions divide
// while the producer is still emitting. Since PR 5 the exchange moves
// columnar batches: the input is packed into rel.BatchCap-row batches,
// the router scatters rows into per-partition staging batches (one
// channel send per full batch), and each partition runs the
// vectorized DivideShardBatches on its shard against the shared
// read-only divisor dictionary.
//
// The result is produced as a cursor, in the dividend's group
// first-occurrence order — the order the sequential Hash algorithm
// emits — for every worker count: the router's group dictionary
// assigns dense IDs in first-occurrence order, and the merge walks the
// IDs in order, asking the owning partition whether the group
// qualified. Qualification is only known once a partition's shard is
// exhausted, so emission starts after the input is consumed; the
// *input* side is where the pipelining happens (the output of division
// is one tuple per qualifying group, bounded by the number of groups).
//
// The returned cursor must be drained to exhaustion. With one worker
// the stream is consumed inline and delegated to the sequential Hash.
//
// g governs the stream; nil means ungoverned, with identical behavior.
// Governed, the exchange and the emitting goroutine select on the
// governor's Done channel, so an abort — cancellation, budget trip,
// worker panic — stops routing and emission promptly, closes the
// output channel, and strands no goroutine; the in-flight packing
// batch is registered for abort release. Callers check g.Err() after
// draining.
func (p ParallelHash) DivideStream(g *exec.Governor, rc engine.Cursor, s *rel.Relation, sem Semantics) engine.Cursor {
	if s.Arity() != 1 {
		panic(fmt.Sprintf("division: S has arity %d, want 1", s.Arity()))
	}
	ex := engine.Executor{Workers: p.Workers}
	if ex.WorkerCount() <= 1 {
		// One worker cannot pipeline against itself: drain and run the
		// sequential algorithm, then stream its result.
		r := rel.NewRelation(2)
		for t, ok := rc.Next(); ok; t, ok = rc.Next() {
			r.Add(t)
		}
		res, _ := Hash{}.Divide(r, s, sem)
		return res.Cursor()
	}
	done := g.Done()
	out := make(chan rel.Tuple, 64)
	go func() {
		defer close(out)
		defer func() {
			if g != nil {
				g.AbortRecovered(recover())
			}
		}()
		dt := NewDivisorTable(s)  // frozen after this point
		gids := rel.NewInterner() // group value -> ID, router-owned while routing
		// The producer side runs entirely on the router goroutine: rows
		// are packed into batches and immediately re-encoded into dense
		// (gid, slot) integer columns — the group's router ID in gids'
		// first-occurrence order, and the element's divisor slot (+1, 0
		// for a value outside the divisor). Workers therefore run on raw
		// integers and never touch a dictionary, which matters because
		// the packing dictionary is not a sealed snapshot dictionary:
		// it is still being interned into while earlier batches are in
		// flight, exactly the live-dictionary case the snapshot
		// contract on StreamPartitionedBatches calls out.
		packed := rel.ToBatches(&arityCheckCursor{in: rc}, 2, rel.BatchCap)
		g.Watch(packed) // packer's staging batch released on abort
		in := &gidSlotCursor{
			in:    packed,
			gids:  rel.NewIDMap(gids),
			dt:    dt,
			slots: make(map[*rel.Interner][]int32),
		}
		qualified := make([]map[uint32]bool, ex.WorkerCount())
		parts := ex.StreamPartitionedBatches(g, in, func(b *rel.Batch, row int) int {
			return engine.PartOf(b.Col(0)[row], ex.WorkerCount())
		}, func(q int, shard engine.BatchCursor) {
			qualified[q] = dt.divideGidSlots(shard, sem)
		})
		if g.Aborted() {
			return
		}
		// All workers done (the exchange returned): the packing
		// dictionary is complete and sealed. Emit in group-ID order == group
		// first-occurrence order == sequential Hash emission order.
		for gid := 0; gid < gids.Len(); gid++ {
			if qualified[engine.PartOf(uint32(gid), parts)][uint32(gid)] {
				if !engine.SendOr(out, rel.Tuple{gids.Value(uint32(gid))}, done) {
					return
				}
			}
		}
	}()
	return engine.ChanCursor{C: out}
}

// gidSlotCursor re-encodes binary (group, element) batches into dense
// dictionary-free integer columns on the consuming (router) goroutine:
// column 0 becomes the group's router gid, column 1 the element's
// divisor slot + 1 (0 = not a divisor value). The translation caches
// make both columns an array load per row after a value's first
// occurrence; the divisor table is frozen, so its ID lookups are safe
// here while workers probe downstream batches.
type gidSlotCursor struct {
	in    rel.BatchCursor
	gids  *rel.IDMap
	dt    *DivisorTable
	slots map[*rel.Interner][]int32
}

func (c *gidSlotCursor) NextBatch() (*rel.Batch, bool) {
	b, ok := c.in.NextBatch()
	if !ok {
		return nil, false
	}
	n := b.Len()
	out := rel.NewBatchSized(2, n)
	c0, c1 := b.Col(0), b.Col(1)
	d0, d1 := b.Dict(0), b.Dict(1)
	slots := c.slots[d1]
	if len(slots) < d1.Len() {
		grown := make([]int32, d1.Len())
		copy(grown, slots)
		slots = grown
		c.slots[d1] = slots
	}
	g, s := out.WritableCol(0), out.WritableCol(1)
	for row := 0; row < n; row++ {
		g[row] = c.gids.Intern(d0, c0[row])
		sl := slots[c1[row]]
		if sl == 0 {
			if slot, ok := c.dt.slots.ID(d1.Value(c1[row])); ok {
				sl = int32(slot) + 2
			} else {
				sl = 1
			}
			slots[c1[row]] = sl
		}
		s[row] = uint32(sl - 1)
	}
	out.SetLen(n)
	b.Release()
	return out, true
}

// divideGidSlots runs the Graefe bitmap scheme on a shard of dense
// (gid, slot+1) integer batches — the dictionary-free worker half of
// DivideStream. Groups accumulate per gid; the returned set holds the
// qualifying gids.
func (dt *DivisorTable) divideGidSlots(shard engine.BatchCursor, sem Semantics) map[uint32]bool {
	local := make(map[uint32]*divGroup)
	for b, ok := shard.NextBatch(); ok; b, ok = shard.NextBatch() {
		gcol, scol := b.Col(0), b.Col(1)
		for row := range gcol {
			g := local[gcol[row]]
			if g == nil {
				g = &divGroup{seen: make([]uint64, dt.words)}
				local[gcol[row]] = g
			}
			if scol[row] > 0 {
				g.mark(scol[row] - 1)
			} else {
				g.extras++
			}
		}
		b.Release()
	}
	qualified := make(map[uint32]bool, len(local))
	for gid, g := range local {
		if g.hits != dt.need {
			continue
		}
		if sem == Equality && g.extras > 0 {
			continue
		}
		qualified[gid] = true
	}
	return qualified
}

// arityCheckCursor guards the streamed dividend with the same arity
// panic the tuple-at-a-time path raised, before rows enter the batch
// packer.
type arityCheckCursor struct{ in engine.Cursor }

func (c *arityCheckCursor) Next() (rel.Tuple, bool) {
	t, ok := c.in.Next()
	if ok && len(t) != 2 {
		panic(fmt.Sprintf("division: R tuple has arity %d, want 2", len(t)))
	}
	return t, ok
}
