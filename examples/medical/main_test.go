package main

import (
	"strings"
	"testing"

	"radiv/internal/division"
	"radiv/internal/paperfigs"
	"radiv/internal/rel"
	"radiv/internal/setjoin"
)

// Fig. 1's core results: the containment join pairs An and Bob with
// the flu profile (and Bob with Lyme), and the division returns
// {An, Bob} — for every algorithm.
func TestMedicalCorePath(t *testing.T) {
	d := paperfigs.Fig1()
	person := setjoin.Groups(d.Rel("Person"))
	disease := setjoin.Groups(d.Rel("Disease"))
	for _, alg := range setjoin.ContainmentAlgorithms() {
		res, _ := alg.Join(person, disease)
		if res.Len() != 3 {
			t.Errorf("%s: containment join has %d pairs, want 3", alg.Name(), res.Len())
		}
	}
	for _, alg := range division.All() {
		res, _ := alg.Divide(d.Rel("Person"), d.Rel("Symptoms"), division.Containment)
		if res.Len() != 2 {
			t.Errorf("%s: Person ÷ Symptoms has %d tuples, want 2", alg.Name(), res.Len())
		}
	}
}

// TestMedicalCursorFedParallel exercises the cursor-fed parallel
// paths at two workers — the configuration CI pins — on the Fig. 1
// data: the streamed containment join and streamed division must emit
// exactly what the sequential algorithms produce.
func TestMedicalCursorFedParallel(t *testing.T) {
	d := paperfigs.Fig1()
	person := setjoin.Groups(d.Rel("Person"))
	disease := setjoin.Groups(d.Rel("Disease"))
	// Drain each cursor fully before comparing — the cursor contract
	// requires exhaustion, and a t.Fatalf mid-drain would leave the
	// exchange goroutines blocked.
	drain := func(c interface {
		Next() (rel.Tuple, bool)
	}) []rel.Tuple {
		var out []rel.Tuple
		for p, ok := c.Next(); ok; p, ok = c.Next() {
			out = append(out, p)
		}
		return out
	}
	want, _ := setjoin.SignatureContainment{}.Join(person, disease)
	got := drain(setjoin.ParallelSignatureContainment{Workers: 2}.JoinStream(nil, person, disease))
	wantT := want.Tuples()
	if len(got) != len(wantT) {
		t.Fatalf("streamed containment join emitted %d pairs, want %d", len(got), len(wantT))
	}
	for i := range got {
		if !got[i].Equal(wantT[i]) {
			t.Fatalf("streamed containment pair %d is %v, want %v", i, got[i], wantT[i])
		}
	}
	div, _ := division.Hash{}.Divide(d.Rel("Person"), d.Rel("Symptoms"), division.Containment)
	dgot := drain(division.ParallelHash{Workers: 2}.DivideStream(nil, d.Rel("Person").Cursor(), d.Rel("Symptoms"), division.Containment))
	dwant := div.Tuples()
	if len(dgot) != len(dwant) {
		t.Fatalf("streamed division emitted %d tuples, want %d", len(dgot), len(dwant))
	}
	for i := range dgot {
		if !dgot[i].Equal(dwant[i]) {
			t.Fatalf("streamed division tuple %d is %v, want %v", i, dgot[i], dwant[i])
		}
	}
}

func TestMedicalRuns(t *testing.T) {
	var b strings.Builder
	run(&b)
	out := b.String()
	for _, want := range []string{"Fig. 1 database:", "parallel-hash", "scaled-up checklist sweep"} {
		if !strings.Contains(out, want) {
			t.Errorf("output lacks %q", want)
		}
	}
}
