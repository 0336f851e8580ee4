package main

import (
	"strings"
	"testing"

	"radiv/internal/division"
	"radiv/internal/ra"
	"radiv/internal/rel"
)

// The quickstart's core path: students 1 and 3 pass all required
// courses, and the RA expression, the hash division and the parallel
// division all agree on that.
func TestQuickstartCorePath(t *testing.T) {
	d := database()
	if d.Size() != 9 {
		t.Fatalf("database size = %d, want 9", d.Size())
	}
	div := ra.Eval(ra.DivisionExpr("R", "S"), d)
	if div.Len() != 2 {
		t.Fatalf("R ÷ S has %d tuples, want 2", div.Len())
	}
	hash, _ := division.Hash{}.Divide(d.Rel("R"), d.Rel("S"), division.Containment)
	par, _ := division.ParallelHash{Workers: 4}.Divide(d.Rel("R"), d.Rel("S"), division.Containment)
	if !hash.Equal(div) || !par.Equal(div) {
		t.Errorf("division algorithms disagree:\nRA %vhash %vparallel %v", div, hash, par)
	}
	// Cursor-fed parallel division at two workers (the configuration
	// CI pins): byte-identical to the sequential hash emission.
	cur := division.ParallelHash{Workers: 2}.DivideStream(nil, d.Rel("R").Cursor(), d.Rel("S"), division.Containment)
	streamed := rel.NewRelation(1)
	for tp, ok := cur.Next(); ok; tp, ok = cur.Next() {
		streamed.Add(tp)
	}
	if !streamed.Equal(hash) || streamed.String() != hash.String() {
		t.Errorf("cursor-fed division diverges:\nstreamed %vhash %v", streamed, hash)
	}
}

func TestQuickstartRuns(t *testing.T) {
	var b strings.Builder
	run(&b)
	out := b.String()
	for _, want := range []string{
		"database (9 tuples)",
		"classification of the division expression: quadratic",
		"classification of the semijoin query:      linear",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output lacks %q", want)
		}
	}
}
