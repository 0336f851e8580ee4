package xra

import (
	"fmt"
	"testing"

	"radiv/internal/ra"
	"radiv/internal/rel"
	"radiv/internal/tuplecontract"
	"radiv/internal/workload"
)

// TestStreamedOnBatchedStore is the adapter suite for the extended
// algebra: streaming evaluation over a store whose scans run through
// the columnar batch adapters must emit exactly the pinned bare-store
// contract at batch sizes 1, 64 and 1024, covering γ in its keying
// configurations, wrapped RA subplans with blocking sinks, and the
// γ-division expressions.
func TestStreamedOnBatchedStore(t *testing.T) {
	r2 := &Wrap{E: ra.R("R", 2)}
	s2 := &Wrap{E: ra.R("S", 2)}
	corpus := []struct {
		name string
		e    Expr
	}{
		{"wrap-stored", r2},
		{"wrap-diff", &Wrap{E: ra.NewDiff(ra.R("R", 2), ra.R("S", 2))}},
		{"gamma-star", NewGamma([]int{1}, 0, r2)},
		{"gamma-distinct", NewGamma([]int{1}, 2, r2)},
		{"gamma-grand", NewGamma(nil, 1, r2)},
		{"join-eq", NewJoin(r2, ra.Eq(2, 1), s2)},
		{"join-theta", NewJoin(r2, ra.Lt(2, 1), s2)},
		{"gamma-of-join", NewGamma([]int{1}, 3, NewJoin(r2, ra.Eq(2, 1), s2))},
	}
	for seed := int64(0); seed < 6; seed++ {
		r, s := workload.RandomSetJoin(seed).Generate()
		d := rel.NewDatabase(rel.NewSchema(map[string]int{"R": 2, "S": 2}))
		for _, tp := range r.Tuples() {
			d.Add("R", tp)
		}
		for _, tp := range s.Tuples() {
			d.Add("S", tp)
		}
		for _, c := range corpus {
			checkBatchedStore(t, fmt.Sprintf("batched %s seed %d", c.name, seed), c.e, d)
		}
	}
}

// TestBatchedStoreGammaDivision runs the Section 5 γ-division over
// batched stores on the randomized division family.
func TestBatchedStoreGammaDivision(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		d := workload.RandomDivision(seed).Database()
		checkBatchedStore(t, fmt.Sprintf("batched containment seed %d", seed), ContainmentDivision("R", "S"), d)
		checkBatchedStore(t, fmt.Sprintf("batched equality seed %d", seed), EqualityDivision("R", "S"), d)
	}
}

// checkBatchedStore runs e over rel.Batched(d, size) at executor batch
// size size, for every sweep size, against the pinned emission.
func checkBatchedStore(t *testing.T, key string, e Expr, d rel.Store) {
	t.Helper()
	want := tuplecontract.Entry(t, "xra/"+key)
	for _, size := range vecBatchSizes {
		res, _ := EvalVectorized(nil, e, rel.Batched(d, size), size)
		if got := tuplecontract.Result(res); got != want {
			t.Errorf("%s size=%d: emission %s, want %s", key, size, got, want)
		}
	}
}
