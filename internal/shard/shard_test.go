package shard_test

import (
	"fmt"
	"sync"
	"testing"

	"radiv/internal/division"
	"radiv/internal/ra"
	"radiv/internal/rel"
	"radiv/internal/sa"
	"radiv/internal/setjoin"
	"radiv/internal/shard"
	"radiv/internal/workload"
	"radiv/internal/xra"
)

// shardCounts is the sweep every equivalence test runs: delegation (1)
// and genuine partitioning (2, 4).
var shardCounts = []int{1, 2, 4}

// divisionStores builds one RandomDivision workload as an in-memory
// database and as a sharded database with n shards holding identical
// data.
func divisionStores(seed int64, n int) (*rel.Database, *shard.Database) {
	d := workload.RandomDivision(seed).Database()
	return d, shard.FromStore(d, n)
}

// sameTuples compares two relations byte for byte: same arity, same
// tuples, same insertion order.
func sameTuples(a, b *rel.Relation) error {
	if a.Arity() != b.Arity() {
		return fmt.Errorf("arity %d vs %d", a.Arity(), b.Arity())
	}
	if a.Len() != b.Len() {
		return fmt.Errorf("cardinality %d vs %d", a.Len(), b.Len())
	}
	at, bt := a.Tuples(), b.Tuples()
	for i := range at {
		if !at[i].Equal(bt[i]) {
			return fmt.Errorf("position %d: %s vs %s", i, at[i], bt[i])
		}
	}
	return nil
}

// TestShardStoreContract pins the rel.Store contract on the sharded
// backend: scans yield global insertion order (byte-identical to the
// in-memory database), Len/Size/Contains agree, and set semantics
// holds across shards.
func TestShardStoreContract(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		for _, n := range shardCounts {
			d, s := divisionStores(seed, n)
			if !rel.StoresEqual(d, s) || !s.Equal(d) {
				t.Fatalf("seed %d shards %d: stores not equal", seed, n)
			}
			if d.Size() != s.Size() {
				t.Fatalf("seed %d shards %d: size %d vs %d", seed, n, d.Size(), s.Size())
			}
			for _, name := range d.Schema().Names() {
				dv, sv := d.View(name), s.View(name)
				if dv.Len() != sv.Len() {
					t.Fatalf("seed %d shards %d: %s Len %d vs %d", seed, n, name, dv.Len(), sv.Len())
				}
				dc, sc := dv.Scan(), sv.Scan()
				for i := 0; ; i++ {
					dt, dok := dc.Next()
					st, sok := sc.Next()
					if dok != sok {
						t.Fatalf("seed %d shards %d: %s scan length mismatch at %d", seed, n, name, i)
					}
					if !dok {
						break
					}
					if !dt.Equal(st) {
						t.Fatalf("seed %d shards %d: %s scan order diverges at %d: %s vs %s", seed, n, name, i, dt, st)
					}
					if !sv.Contains(dt) {
						t.Fatalf("seed %d shards %d: %s missing scanned tuple %s", seed, n, name, dt)
					}
				}
				// Reset replays the same sequence (loop joins rely on it).
				sc.Reset()
				if first, ok := sc.Next(); ok {
					if want, _ := dv.Scan().Next(); !first.Equal(want) {
						t.Fatalf("seed %d shards %d: %s Reset does not rewind", seed, n, name)
					}
				}
			}
			// Duplicate adds are rejected globally.
			c := d.View("R").Scan()
			if tup, ok := c.Next(); ok {
				if s.Add("R", tup) {
					t.Fatalf("seed %d shards %d: duplicate add accepted", seed, n)
				}
			}
		}
	}
}

// TestShardSingleShardDelegation pins the zero-overhead contract at
// shard count 1: no routing state exists and the view is the
// underlying relation itself, exactly what the in-memory database
// would hand out.
func TestShardSingleShardDelegation(t *testing.T) {
	d, s := divisionStores(1, 1)
	if s.Router("R").Len() != 0 {
		t.Errorf("single-shard store keeps a router")
	}
	v, ok := s.View("R").(*rel.Relation)
	if !ok {
		t.Fatalf("single-shard View is a %T, want the underlying *rel.Relation", s.View("R"))
	}
	if v != s.Shard(0).Rel("R") {
		t.Errorf("single-shard View is not the shard-local relation itself")
	}
	if !rel.StoresEqual(d, s) {
		t.Errorf("single-shard store diverges from source")
	}
}

// TestShardRoutingGroupsWhole pins the partition invariant everything
// rests on: all tuples sharing a first column land in one shard, and
// ShardOf reports it.
func TestShardRoutingGroupsWhole(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		for _, n := range []int{2, 4} {
			_, s := divisionStores(seed, n)
			for _, name := range []string{"R", "S"} {
				owner := map[rel.Value]int{}
				for q := 0; q < s.NumShards(); q++ {
					c := s.Shard(q).Rel(name).Cursor()
					for tup, ok := c.Next(); ok; tup, ok = c.Next() {
						if prev, seen := owner[tup[0]]; seen && prev != q {
							t.Fatalf("seed %d shards %d: %s group %s split across shards %d and %d", seed, n, name, tup[0], prev, q)
						}
						owner[tup[0]] = q
						if got := s.ShardOf(name, tup); got != q {
							t.Fatalf("seed %d shards %d: ShardOf(%s)=%d, tuple lives in %d", seed, n, tup, got, q)
						}
					}
				}
			}
		}
	}
}

// TestShardedDivisionEquivalence is the acceptance criterion for
// division: shard.Divide is byte-identical to the sequential
// division.Hash on the merged relations, under both semantics, at
// shard counts 1, 2 and 4, across randomized workloads and worker
// counts.
func TestShardedDivisionEquivalence(t *testing.T) {
	for seed := int64(0); seed < 25; seed++ {
		for _, n := range shardCounts {
			d, s := divisionStores(seed, n)
			for _, sem := range []division.Semantics{division.Containment, division.Equality} {
				want, _ := division.Hash{}.Divide(d.Rel("R"), d.Rel("S"), sem)
				for _, workers := range []int{1, 2, 4} {
					got, st := shard.Divide(s, "R", "S", sem, workers)
					if err := sameTuples(want, got); err != nil {
						t.Fatalf("seed %d shards %d workers %d %s: %v", seed, n, workers, sem, err)
					}
					if len(st.ShardResident) != n {
						t.Fatalf("seed %d shards %d: %d resident entries", seed, n, len(st.ShardResident))
					}
				}
			}
		}
	}
}

// TestShardedSetJoinEquivalence is the acceptance criterion for the
// set joins: both shard-local joins are byte-identical to their
// sequential counterparts at shard counts 1, 2 and 4.
func TestShardedSetJoinEquivalence(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		r, sRel := workload.RandomSetJoin(seed).Generate()
		d := rel.NewDatabase(rel.NewSchema(map[string]int{"R": 2, "S": 2}))
		for _, tup := range r.Tuples() {
			d.Add("R", tup)
		}
		for _, tup := range sRel.Tuples() {
			d.Add("S", tup)
		}
		rG, sG := setjoin.Groups(d.Rel("R")), setjoin.Groups(d.Rel("S"))
		wantC, _ := setjoin.SignatureContainment{}.Join(rG, sG)
		wantE, _ := setjoin.HashEquality{}.Join(rG, sG)
		for _, n := range shardCounts {
			s := shard.FromStore(d, n)
			for _, workers := range []int{1, 2, 4} {
				gotC, _ := shard.ContainmentJoin(s, "R", "S", workers)
				if err := sameTuples(wantC, gotC); err != nil {
					t.Fatalf("containment seed %d shards %d workers %d: %v", seed, n, workers, err)
				}
				gotE, _ := shard.EqualityJoin(s, "R", "S", workers)
				if err := sameTuples(wantE, gotE); err != nil {
					t.Fatalf("equality seed %d shards %d workers %d: %v", seed, n, workers, err)
				}
			}
		}
	}
}

// TestShardedEvaluatorEquivalence is the acceptance criterion for the
// algebra layers: streamed and materialized ra/sa/xra plans evaluate
// byte-identically over a sharded store and the in-memory database at
// shard counts 1, 2 and 4 — the Store abstraction leaks nothing.
func TestShardedEvaluatorEquivalence(t *testing.T) {
	raExpr := ra.DivisionExpr("R", "S")
	saExpr := sa.NewProject([]int{1}, sa.NewAntijoin(sa.R("R", 2), ra.Eq(2, 1), sa.R("S", 1)))
	xraExpr := xra.ContainmentDivision("R", "S")
	for seed := int64(0); seed < 12; seed++ {
		for _, n := range shardCounts {
			d, s := divisionStores(seed, n)
			raD, _ := ra.EvalVectorized(nil, raExpr, d, 0)
			raS, _ := ra.EvalVectorized(nil, raExpr, s, 0)
			if err := sameTuples(raD, raS); err != nil {
				t.Fatalf("ra streamed seed %d shards %d: %v", seed, n, err)
			}
			if err := sameTuples(ra.Eval(raExpr, d), ra.Eval(raExpr, s)); err != nil {
				t.Fatalf("ra materialized seed %d shards %d: %v", seed, n, err)
			}
			saD, _ := sa.EvalVectorized(nil, saExpr, d, 0)
			saS, _ := sa.EvalVectorized(nil, saExpr, s, 0)
			if err := sameTuples(saD, saS); err != nil {
				t.Fatalf("sa streamed seed %d shards %d: %v", seed, n, err)
			}
			xD, _ := xra.EvalVectorized(nil, xraExpr, d, 0)
			xS, _ := xra.EvalVectorized(nil, xraExpr, s, 0)
			if err := sameTuples(xD, xS); err != nil {
				t.Fatalf("xra streamed seed %d shards %d: %v", seed, n, err)
			}
		}
	}
}

// TestShardedEvalResultOwnership extends the result-ownership contract
// to sharded stores: a bare-relation evaluation must hand back a
// caller-owned snapshot, never a view into a shard.
func TestShardedEvalResultOwnership(t *testing.T) {
	_, s := divisionStores(3, 2)
	before := s.View("R").Len()
	res := ra.Eval(ra.R("R", 2), s)
	res.Add(rel.Ints(-99, -99))
	if s.View("R").Len() != before || s.View("R").Contains(rel.Ints(-99, -99)) {
		t.Errorf("mutating a bare-relation result wrote through to the sharded store")
	}
}

// TestShardConcurrentReaders pins the "concurrent readers are safe
// once loading is complete" contract under the race detector: several
// goroutines scan and probe a relation that most shards never
// received a tuple of (the regression: lazily materializing those
// empty shard-local relations was a map write on the read path).
func TestShardConcurrentReaders(t *testing.T) {
	s := shard.New(rel.NewSchema(map[string]int{"R": 2, "S": 1}), 4)
	s.AddInts("S", 7) // one group: three shards hold no S at all
	for i := int64(0); i < 40; i++ {
		s.AddInts("R", i, i%7)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for rep := 0; rep < 50; rep++ {
				v := s.View("S")
				c := v.Scan()
				n := 0
				for _, ok := c.Next(); ok; _, ok = c.Next() {
					n++
				}
				if n != 1 || !v.Contains(rel.Ints(7)) || v.Contains(rel.Ints(8)) {
					t.Errorf("concurrent reader saw wrong contents (n=%d)", n)
					return
				}
				if got, _ := ra.EvalVectorized(nil, ra.R("S", 1), s, 0); got.Len() != 1 {
					t.Errorf("concurrent streamed eval saw %d tuples", got.Len())
					return
				}
			}
		}()
	}
	wg.Wait()
}
