package main

import (
	"testing"
	"time"
)

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "parent", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "b", Start: 20, End: 50},  // overlaps a: counted once
		{ID: 4, Parent: 1, Name: "c", Start: 90, End: 120}, // runs past the parent: clipped
		{ID: 5, Parent: 2, Name: "d", Start: 12, End: 18},
		{ID: 6, Parent: 1, Name: "e", Start: 200, End: 300}, // outside the parent: ignored
	}
	self := selfTimes(spans)
	for id, want := range map[int]time.Duration{1: 50, 2: 14, 3: 30, 4: 30, 5: 6, 6: 100} {
		if self[id] != want {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], want)
		}
	}
}

func TestRecorderNilAndNesting(t *testing.T) {
	var off *recorder
	if id := off.begin(0, "x", "r"); id != 0 {
		t.Errorf("nil recorder returned span %d", id)
	}
	off.end(0)
	if off.snapshot() != nil {
		t.Error("nil recorder kept spans")
	}

	rec := newRecorder()
	p := rec.begin(0, "parent", "req-1")
	c := rec.begin(p, "child", "req-1")
	rec.end(c)
	rec.end(p)
	spans := rec.snapshot()
	if len(spans) != 2 || spans[1].Parent != spans[0].ID || spans[1].Req != "req-1" {
		t.Fatalf("spans = %+v", spans)
	}
	if spans[0].End < spans[1].End || spans[1].Start < spans[0].Start {
		t.Errorf("child %+v is not inside parent %+v", spans[1], spans[0])
	}
}
