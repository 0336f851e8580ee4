package setjoin

import (
	"testing"

	"radiv/internal/engine"
	"radiv/internal/rel"
	"radiv/internal/workload"
)

func drainPairs(c engine.Cursor) []rel.Tuple {
	var out []rel.Tuple
	for t, ok := c.Next(); ok; t, ok = c.Next() {
		out = append(out, t)
	}
	return out
}

// TestJoinStreamByteIdenticalToSequential: the cursor-producing
// parallel joins must emit exactly the sequential emission sequence —
// same pairs, same order — for every worker count, on randomized
// workloads.
func TestJoinStreamByteIdenticalToSequential(t *testing.T) {
	for seed := int64(0); seed < 12; seed++ {
		r, s := workload.RandomSetJoin(seed).Generate()
		gr, gs := Groups(r), Groups(s)

		wantC, _ := SignatureContainment{}.Join(gr, gs)
		wantE, _ := HashEquality{}.Join(gr, gs)
		for _, workers := range []int{1, 2, 4} {
			gotC := drainPairs(ParallelSignatureContainment{Workers: workers}.JoinStream(nil, gr, gs))
			checkSameSequence(t, "containment", seed, workers, gotC, wantC)
			gotE := drainPairs(ParallelHashEquality{Workers: workers}.JoinStream(nil, gr, gs))
			checkSameSequence(t, "equality", seed, workers, gotE, wantE)
		}
	}
}

func checkSameSequence(t *testing.T, name string, seed int64, workers int, got []rel.Tuple, want *rel.Relation) {
	t.Helper()
	wantT := want.Tuples()
	if len(got) != len(wantT) {
		t.Fatalf("%s seed %d workers=%d: %d pairs, want %d", name, seed, workers, len(got), len(wantT))
	}
	for i := range got {
		if !got[i].Equal(wantT[i]) {
			t.Fatalf("%s seed %d workers=%d: position %d is %v, want %v",
				name, seed, workers, i, got[i], wantT[i])
		}
	}
}

// TestJoinStreamEmptySides: zero groups on either side must yield an
// immediately exhausted cursor, not a hang.
func TestJoinStreamEmptySides(t *testing.T) {
	r, _ := workload.RandomSetJoin(1).Generate()
	gr := Groups(r)
	var none []*Group
	for _, workers := range []int{1, 3} {
		if got := drainPairs(ParallelSignatureContainment{Workers: workers}.JoinStream(nil, none, gr)); len(got) != 0 {
			t.Errorf("workers=%d: empty R side produced %d pairs", workers, len(got))
		}
		if got := drainPairs(ParallelHashEquality{Workers: workers}.JoinStream(nil, gr, none)); len(got) != 0 {
			t.Errorf("workers=%d: empty S side produced %d pairs", workers, len(got))
		}
	}
}
