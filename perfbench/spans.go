package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/units"
)

// span is one timed call into a layer: the benchmark opens it before an
// exported call and closes it after, so no program code is touched.
// Parent 0 marks a root span.
type span struct {
	ID     int           `json:"id"`
	Parent int           `json:"parent"`
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

func (s span) dur() time.Duration { return s.End - s.Start }

// recorder keeps spans in memory; they are written out once the run ends.
// It is safe for concurrent use (jobs run on several workers).
type recorder struct {
	mu     sync.Mutex
	origin time.Time
	spans  []span
}

func newRecorder() *recorder { return &recorder{origin: time.Now()} }

// begin opens a span and returns its id.
func (r *recorder) begin(name string, parent int) int {
	now := time.Since(r.origin)
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans) + 1
	r.spans = append(r.spans, span{ID: id, Parent: parent, Name: name, Start: now})
	return id
}

// end closes span id.
func (r *recorder) end(id int) {
	now := time.Since(r.origin)
	r.mu.Lock()
	r.spans[id-1].End = now
	r.mu.Unlock()
}

// snapshot copies the spans recorded so far.
func (r *recorder) snapshot() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// total sums the durations of every span with the given name.
func total(spans []span, name string) time.Duration {
	var d time.Duration
	for _, s := range spans {
		if s.Name == name {
			d += s.dur()
		}
	}
	return d
}

// selfTime is a span's duration minus the part of it its children cover.
// Children may overlap (jobs on parallel workers), so the covered part is
// the union of their intervals, clipped to the parent.
func selfTime(parent span, spans []span) time.Duration {
	var iv [][2]time.Duration
	for _, s := range spans {
		if s.Parent != parent.ID {
			continue
		}
		lo, hi := max(s.Start, parent.Start), min(s.End, parent.End)
		if lo < hi {
			iv = append(iv, [2]time.Duration{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var covered time.Duration
	var curLo, curHi time.Duration
	for i, v := range iv {
		switch {
		case i == 0:
			curLo, curHi = v[0], v[1]
		case v[0] <= curHi:
			curHi = max(curHi, v[1])
		default:
			covered += curHi - curLo
			curLo, curHi = v[0], v[1]
		}
	}
	if len(iv) > 0 {
		covered += curHi - curLo
	}
	return parent.dur() - covered
}

// writeSpans writes one JSON line of run context, then one per span.
func writeSpans(path string, header any, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	if err := enc.Encode(header); err != nil {
		f.Close()
		return err
	}
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// Event labels follow "layer:action" (one outlier uses a dot,
// "open.arrival"); the traced probe counts executed events per layer.
var eventLayers = []string{"link", "switch", "rnic", "rperf", "xwire", "open", "fault"}

// otherLayer is the bucket index of labels outside eventLayers.
var otherLayer = len(eventLayers)

// layerOf maps a label to its bucket: the prefix before the first ':' or
// '.', looked up in eventLayers.
func layerOf(label string) int {
	if i := strings.IndexAny(label, ":."); i >= 0 {
		label = label[:i]
	}
	for i, l := range eventLayers {
		if l == label {
			return i
		}
	}
	return otherLayer
}

// eventCounter counts one engine's events by layer. Each shard engine gets
// its own: under the channel barrier shards run on concurrent goroutines.
type eventCounter struct {
	bucket map[string]int // label -> layer index, filled on first sight
	n      []uint64       // per layer, otherLayer last
}

func newEventCounter() *eventCounter {
	return &eventCounter{bucket: map[string]int{}, n: make([]uint64, len(eventLayers)+1)}
}

// observe has the signature of sim.Engine.Trace.
func (c *eventCounter) observe(_ units.Time, label string) {
	i, ok := c.bucket[label]
	if !ok {
		i = layerOf(label)
		c.bucket[label] = i
	}
	c.n[i]++
}

// layerCounts sums the per-engine counters.
func layerCounts(cs []*eventCounter) []uint64 {
	out := make([]uint64, len(eventLayers)+1)
	for _, c := range cs {
		for i, v := range c.n {
			out[i] += v
		}
	}
	return out
}
