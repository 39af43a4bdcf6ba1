package main

import (
	"sync"
	"testing"
	"time"
)

func TestSelfTimeUnionsOverlappingChildren(t *testing.T) {
	ms := time.Millisecond
	parent := span{ID: 1, Start: 0, End: 100 * ms}
	spans := []span{
		parent,
		{ID: 2, Parent: 1, Start: 10 * ms, End: 40 * ms},
		{ID: 3, Parent: 1, Start: 30 * ms, End: 60 * ms},  // overlaps 2: union 10..60
		{ID: 4, Parent: 1, Start: 55 * ms, End: 58 * ms},  // inside the union
		{ID: 5, Parent: 1, Start: 90 * ms, End: 120 * ms}, // clipped to 90..100
		{ID: 6, Parent: 2, Start: 70 * ms, End: 80 * ms},  // a grandchild: not a child of 1
		{ID: 7, Parent: 0, Start: 60 * ms, End: 90 * ms},  // unrelated root
	}
	// Covered: 10..60 and 90..100, 60 ms of 100.
	if got := selfTime(parent, spans); got != 40*ms {
		t.Errorf("self time = %v, want 40ms", got)
	}
	if got := selfTime(span{ID: 7, Start: 0, End: 5 * ms}, spans); got != 5*ms {
		t.Errorf("self time without children = %v, want 5ms", got)
	}
}

func TestRecorderConcurrentSpans(t *testing.T) {
	rec := newRecorder()
	root := rec.begin("pass", 0)
	var wg sync.WaitGroup
	for range 8 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range 100 {
				rec.end(rec.begin("experiments.run", root))
			}
		}()
	}
	wg.Wait()
	rec.end(root)
	spans := rec.snapshot()
	if n := count(spans, "experiments.run"); n != 800 {
		t.Fatalf("recorded %d run spans, want 800", n)
	}
	for _, s := range spans {
		if s.End < s.Start {
			t.Fatalf("span %+v ends before it starts", s)
		}
	}
	if st := selfTime(spans[root-1], spans); st < 0 || st > spans[root-1].dur() {
		t.Fatalf("root self time %v outside [0, %v]", st, spans[root-1].dur())
	}
}

func TestLayerOfSplitsOnColonOrDot(t *testing.T) {
	for label, want := range map[string]string{
		"link:deliver":  "link",
		"link:credit":   "link",
		"switch:pick":   "switch",
		"rnic:cqe":      "rnic",
		"rperf:gap":     "rperf",
		"xwire:deliver": "xwire",
		"open.arrival":  "open",
		"fault:down":    "fault",
		"qperf:sample":  "other",
		"linkish":       "other",
		"":              "other",
	} {
		got := "other"
		if i := layerOf(label); i < len(eventLayers) {
			got = eventLayers[i]
		}
		if got != want {
			t.Errorf("layerOf(%q) = %s, want %s", label, got, want)
		}
	}
}

func TestEventCounterPerEngine(t *testing.T) {
	a, b := newEventCounter(), newEventCounter()
	for range 3 {
		a.observe(0, "link:deliver")
	}
	a.observe(0, "open.arrival")
	b.observe(0, "link:credit")
	b.observe(0, "misc")
	got := layerCounts([]*eventCounter{a, b})
	want := map[int]uint64{layerOf("link:x"): 4, layerOf("open.x"): 1, otherLayer: 1}
	for i, n := range got {
		if n != want[i] {
			t.Errorf("layer %d: %d events, want %d", i, n, want[i])
		}
	}
}
