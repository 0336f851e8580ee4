package sa

import (
	"testing"

	"radiv/internal/tuplecontract"
)

// TestMain checks this package's entries of the tuple contract; see
// internal/tuplecontract.
func TestMain(m *testing.M) { tuplecontract.Main(m, "sa/") }
