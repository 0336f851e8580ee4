package division

import (
	"fmt"
	"testing"

	"radiv/internal/rel"
	"radiv/internal/workload"
)

// drain pulls a cursor to exhaustion, preserving emission order.
func drain(c interface {
	Next() (rel.Tuple, bool)
}) []rel.Tuple {
	var out []rel.Tuple
	for t, ok := c.Next(); ok; t, ok = c.Next() {
		out = append(out, t)
	}
	return out
}

// TestDivideStreamByteIdenticalToSequential: the cursor-fed parallel
// division must emit exactly the sequential Hash emission sequence —
// same tuples, same order — for every worker count and both
// semantics, on randomized workloads. This is the partition-order
// independence the gid-ordered merge buys: unlike Divide, whose
// emission follows partition order, DivideStream is byte-identical to
// the sequential algorithm itself.
func TestDivideStreamByteIdenticalToSequential(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		r, s := workload.RandomDivision(seed).Generate()
		for _, sem := range []Semantics{Containment, Equality} {
			want, _ := Hash{}.Divide(r, s, sem)
			wantT := want.Tuples()
			for _, workers := range []int{1, 2, 4} {
				got := drain(ParallelHash{Workers: workers}.DivideStream(nil, r.Cursor(), s, sem))
				if len(got) != len(wantT) {
					t.Fatalf("seed %d workers=%d %s: %d tuples, want %d", seed, workers, sem, len(got), len(wantT))
				}
				for i := range got {
					if !got[i].Equal(wantT[i]) {
						t.Fatalf("seed %d workers=%d %s: position %d is %v, want %v",
							seed, workers, sem, i, got[i], wantT[i])
					}
				}
			}
		}
	}
}

// TestDivideStreamFromComputedCursor feeds the divider from a
// non-relation cursor (a filtering wrapper), verifying the stream path
// needs no materialized dividend.
func TestDivideStreamFromComputedCursor(t *testing.T) {
	r, s := workload.Division{Groups: 50, GroupSize: 6, DivisorSize: 4,
		MatchFraction: 0.4, Domain: 64, Seed: 9}.Generate()
	// Keep only even groups, through a streaming filter.
	filtered := rel.NewRelation(2)
	for _, tp := range r.Tuples() {
		if tp[0].AsInt()%2 == 0 {
			filtered.Add(tp)
		}
	}
	want, _ := Hash{}.Divide(filtered, s, Containment)
	fc := &filterCursor{in: r.Cursor()}
	got := drain(ParallelHash{Workers: 3}.DivideStream(nil, fc, s, Containment))
	if len(got) != want.Len() {
		t.Fatalf("streamed-from-cursor division: %d tuples, want %d", len(got), want.Len())
	}
	for i, tp := range want.Tuples() {
		if !got[i].Equal(tp) {
			t.Fatalf("position %d: %v, want %v", i, got[i], tp)
		}
	}
}

type filterCursor struct{ in *rel.Cursor }

func (c *filterCursor) Next() (rel.Tuple, bool) {
	for {
		t, ok := c.in.Next()
		if !ok {
			return nil, false
		}
		if t[0].AsInt()%2 == 0 {
			return t, true
		}
	}
}

// TestDivideStreamDeterministic: repeated runs with the same worker
// count emit the same sequence.
func TestDivideStreamDeterministic(t *testing.T) {
	r, s := workload.Division{Groups: 70, GroupSize: 5, DivisorSize: 3,
		MatchFraction: 0.3, Domain: 32, Seed: 4}.Generate()
	first := drain(ParallelHash{Workers: 4}.DivideStream(nil, r.Cursor(), s, Containment))
	for run := 0; run < 4; run++ {
		again := drain(ParallelHash{Workers: 4}.DivideStream(nil, r.Cursor(), s, Containment))
		if fmt.Sprint(again) != fmt.Sprint(first) {
			t.Fatalf("run %d: emission differs", run)
		}
	}
}
