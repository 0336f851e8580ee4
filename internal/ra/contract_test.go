package ra_test

import (
	"testing"

	"radiv/internal/ra"
	"radiv/internal/rel"
	"radiv/internal/tuplecontract"
)

// TestMain checks this package's entries of the tuple contract; see
// internal/tuplecontract.
func TestMain(m *testing.M) { tuplecontract.Main(m, "ra/") }

// contractTrace renders a result and its trace in the golden format.
func contractTrace(res *rel.Relation, tr *ra.Trace) string {
	labels := make([]string, len(tr.Steps))
	flows := make([]int, len(tr.Steps))
	for i, s := range tr.Steps {
		labels[i] = s.Expr.String()
		flows[i] = s.Size
	}
	return tuplecontract.Trace(res, labels, flows, tr.MaxIntermediate, tr.TotalTuples, tr.MaxResident)
}
