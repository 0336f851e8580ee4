package sa

import (
	"fmt"
	"testing"

	"radiv/internal/ra"
	"radiv/internal/rel"
	"radiv/internal/tuplecontract"
	"radiv/internal/workload"
)

// TestStreamedOnBatchedStore is the adapter suite for the semijoin
// algebra: the streaming executor runs over a store whose every scan
// is routed through the columnar batch adapters (tuple → rel.Batch →
// tuple → rel.Batch), at batch sizes 1, 64 and 1024, and must emit
// exactly the pinned bare-store contract — same tuples, same order.
// Plans cover the algebra-specific operators (semijoin, antijoin,
// theta conditions) on top of the shared RA substrate.
func TestStreamedOnBatchedStore(t *testing.T) {
	corpus := []struct {
		name string
		e    Expr
	}{
		{"stored", R("R", 2)},
		{"semijoin", NewSemijoin(R("R", 2), ra.Eq(2, 1), R("S", 2))},
		{"antijoin", NewAntijoin(R("R", 2), ra.Eq(2, 2), R("S", 2))},
		{"semijoin-theta", NewSemijoin(R("R", 2), ra.Lt(1, 2), R("S", 2))},
		{"project-antijoin", NewProject([]int{2}, NewAntijoin(R("R", 2), ra.Eq(1, 1), R("S", 2)))},
		{"union-semijoin", NewUnion(NewSemijoin(R("R", 2), ra.Eq(2, 1), R("S", 2)), R("S", 2))},
		{"diff", NewDiff(R("R", 2), R("S", 2))},
	}
	for seed := int64(0); seed < 6; seed++ {
		d := setJoinDatabase(seed)
		for _, c := range corpus {
			checkBatchedStore(t, fmt.Sprintf("batched %s seed %d", c.name, seed), c.e, d)
		}
	}
}

// TestBatchedStoreRandomizedDivisionFamily runs the ST2 antijoin shape
// over batched stores on the division workload family.
func TestBatchedStoreRandomizedDivisionFamily(t *testing.T) {
	e := NewProject([]int{1}, NewAntijoin(R("R", 2), ra.Eq(2, 1), R("S", 1)))
	for seed := int64(0); seed < 10; seed++ {
		d := workload.RandomDivision(seed).Database()
		checkBatchedStore(t, fmt.Sprintf("batched division-antijoin seed %d", seed), e, d)
	}
}

// checkBatchedStore runs e over rel.Batched(d, size) at executor batch
// size size, for every sweep size, against the pinned emission.
func checkBatchedStore(t *testing.T, key string, e Expr, d rel.Store) {
	t.Helper()
	want := tuplecontract.Entry(t, "sa/"+key)
	for _, size := range vecBatchSizes {
		res, _ := EvalVectorized(nil, e, rel.Batched(d, size), size)
		if got := tuplecontract.Result(res); got != want {
			t.Errorf("%s size=%d: emission %s, want %s", key, size, got, want)
		}
	}
}
