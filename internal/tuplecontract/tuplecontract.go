// Package tuplecontract reads the tuple-executor contract for tests.
//
// The tuple-at-a-time executor that once ran beside the batch executor
// is pinned by internal/testdata/tuple_contract.golden: for every
// expression of the fixed corpora (the ra, sa and xra operator corpora,
// the plan equivalence corpus, the division and set-join seeds) it
// records the result digest in emission order and the trace — step
// labels, per-step flows, MaxIntermediate, TotalTuples, MaxResident —
// as that executor produced them. The batch executor must reproduce
// every entry at every batch size.
//
// The file holds one entry per line, key<TAB>record; keys start with
// the owning package's prefix ("ra/", "sa/", "xra/", "plan/"). A suite
// looks entries up with Entry, renders what it ran with Result or
// Trace, and calls Main from its TestMain so that a full run fails
// when it leaves one of its entries unchecked.
package tuplecontract

import (
	"flag"
	"fmt"
	"hash/fnv"
	"os"
	"strconv"
	"strings"
	"sync"
	"testing"

	"radiv/internal/ra"
	"radiv/internal/rel"
)

// path is the golden file relative to a package directly under
// internal/, the working directory of its tests.
const path = "../testdata/tuple_contract.golden"

var load = sync.OnceValues(func() (map[string]string, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	m := make(map[string]string)
	for _, ln := range strings.Split(string(data), "\n") {
		if ln == "" || strings.HasPrefix(ln, "#") {
			continue
		}
		k, v, ok := strings.Cut(ln, "\t")
		if !ok {
			return nil, fmt.Errorf("malformed contract line %q", ln)
		}
		m[k] = v
	}
	return m, nil
})

// checked records the keys Entry handed out.
var checked sync.Map

// Entry returns the pinned record for key, failing the test when the
// file is unreadable or has no such entry.
func Entry(t testing.TB, key string) string {
	t.Helper()
	m, err := load()
	if err != nil {
		t.Fatalf("tuple contract: %v", err)
	}
	want, ok := m[key]
	if !ok {
		t.Fatalf("tuple contract has no entry %q", key)
	}
	checked.Store(key, true)
	return want
}

// Main runs the tests and exits. A full run — no -run, -skip or -list
// filter — that passed but left an entry under prefix unchecked fails,
// so a shrinking corpus cannot silently stop reproducing the contract.
func Main(m *testing.M, prefix string) {
	code := m.Run()
	if code == 0 && unfiltered() {
		entries, err := load()
		if err != nil {
			fmt.Fprintln(os.Stderr, "tuple contract:", err)
			os.Exit(1)
		}
		for k := range entries {
			if _, ok := checked.Load(k); !ok && strings.HasPrefix(k, prefix) {
				fmt.Fprintf(os.Stderr, "tuple contract entry %q was not checked\n", k)
				code = 1
			}
		}
	}
	os.Exit(code)
}

// unfiltered reports whether the test binary runs every test: a -run
// or -skip pattern selects a subset, and -list runs none.
func unfiltered() bool {
	for _, name := range []string{"test.run", "test.skip", "test.list"} {
		if f := flag.Lookup(name); f != nil && f.Value.String() != "" {
			return false
		}
	}
	return true
}

// Result renders a result as its size and an FNV-64a digest of its
// tuples in emission order.
func Result(res *rel.Relation) string {
	h := fnv.New64a()
	for _, t := range res.Tuples() {
		h.Write([]byte(t.String() + "\n"))
	}
	return fmt.Sprintf("rows=%d result=%016x", res.Len(), h.Sum64())
}

// Trace renders a result and its trace: the step labels (digested) and
// flows in step order, then MaxIntermediate, TotalTuples and
// MaxResident.
func Trace(res *rel.Relation, tr *ra.Trace) string {
	h := fnv.New64a()
	fs := make([]string, len(tr.Steps))
	for i, s := range tr.Steps {
		h.Write([]byte(s.Expr.String() + "\n"))
		fs[i] = strconv.Itoa(s.Size)
	}
	return fmt.Sprintf("%s steps=%016x flows=%s max=%d total=%d resident=%d",
		Result(res), h.Sum64(), strings.Join(fs, ","), tr.MaxIntermediate, tr.TotalTuples, tr.MaxResident)
}
