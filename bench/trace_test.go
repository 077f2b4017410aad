package main

import (
	"testing"
	"time"
)

// A span's self time is its duration minus the part of its interval its
// children cover; overlapping children are counted once, and a child
// running past its parent is clipped.
func TestSelfTime(t *testing.T) {
	spans := []span{
		{ID: 1, Start: 0, End: 100},
		{ID: 2, Parent: 1, Start: 10, End: 30},
		{ID: 3, Parent: 1, Start: 20, End: 50}, // overlaps 2
		{ID: 4, Parent: 1, Start: 60, End: 70},
		{ID: 5, Parent: 1, Start: 95, End: 120}, // runs past the parent
		{ID: 6, Parent: 3, Start: 25, End: 45},  // a grandchild only reduces 3
	}
	want := map[int]time.Duration{1: 100 - 40 - 10 - 5, 2: 20, 3: 10, 4: 10, 5: 25, 6: 20}
	got := selfTimes(spans)
	for id, w := range want {
		if got[id] != w {
			t.Errorf("self time of span %d = %d, want %d", id, got[id], w)
		}
	}
}

func TestTracerRecordsParentsAndCounts(t *testing.T) {
	tr := newTracer()
	root := tr.start(nil, "bench", "pass")
	child := tr.start(root, "archive", "Open")
	child.end("bytes", 42, "p1", 1)
	root.end()
	other := tr.start(nil, "bench", "pass")
	other.end()

	opens := tr.named("archive", "Open")
	if len(opens) != 1 || opens[0].Parent != 1 || opens[0].Op != 1 || opens[0].Counts["bytes"] != 42 {
		t.Fatalf("archive.Open spans = %+v", opens)
	}
	if passes := tr.named("bench", "pass"); len(passes) != 2 || passes[1].Op != passes[1].ID {
		t.Fatalf("bench.pass spans = %+v", passes)
	}
	if opens[0].End < opens[0].Start {
		t.Errorf("span ends before it starts: %+v", opens[0])
	}
}

// Untraced passes run the same code against a nil tracer.
func TestNilTracerIsInert(t *testing.T) {
	var tr *tracer
	sp := tr.start(nil, "archive", "Open")
	sp.end("bytes", 1)
	if sp != nil || tr.named("archive", "Open") != nil {
		t.Fatal("nil tracer recorded something")
	}
}
