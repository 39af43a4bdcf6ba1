package main

import (
	"slices"
	"testing"

	"repro/internal/experiments"
	"repro/internal/units"
)

// TestProbeMatchesRun rebuilds points of both direct workloads on a short
// window and requires experiments.Run's statistics, in both barrier modes
// on the sharded fabric, with identical event counts per layer. Under
// -race it also covers the per-shard counters of the channel barrier.
func TestProbeMatchesRun(t *testing.T) {
	opts := experiments.Options{Measure: 40 * units.Microsecond, Warmup: 10 * units.Microsecond, Seeds: []uint64{3}, Parallel: 2}
	for _, tc := range []struct {
		workload string
		point    int
	}{
		{"paper-star", 0},      // 64 B bulk messages
		{"fattree512-open", 4}, // load 0.85
	} {
		w, err := loadWorkload(tc.workload)
		if err != nil {
			t.Fatal(err)
		}
		rps, err := w.tables[0].def.Spec.Resolve()
		if err != nil {
			t.Fatal(err)
		}
		p := rps[tc.point].Point
		ref, err := experiments.Run(p, opts, 3)
		if err != nil {
			t.Fatal(err)
		}
		var layers []uint64
		for _, parallel := range []bool{true, false} {
			r, err := probe(p, opts, 3, parallel, true)
			if err != nil {
				t.Fatal(err)
			}
			if err := r.matches(ref); err != nil {
				t.Errorf("%s parallel=%v: %v", tc.workload, parallel, err)
			}
			if r.events == 0 || r.forwarded == 0 {
				t.Errorf("%s parallel=%v: %d events, %d packets forwarded", tc.workload, parallel, r.events, r.forwarded)
			}
			var sum uint64
			for _, n := range r.layers {
				sum += n
			}
			if sum != r.events {
				t.Errorf("%s: layer counts sum to %d, engines executed %d", tc.workload, sum, r.events)
			}
			if layers != nil && !slices.Equal(layers, r.layers) {
				t.Errorf("%s: per-layer events differ between barrier modes: %v vs %v", tc.workload, layers, r.layers)
			}
			layers = r.layers
			if tc.workload == "fattree512-open" && (!r.sharded || r.layers[layerOf("xwire:x")] == 0 || r.arrivals == 0) {
				t.Errorf("%s: sharded=%v, %d cross-shard events, %d arrivals", tc.workload, r.sharded, r.layers[layerOf("xwire:x")], r.arrivals)
			}
		}
	}
}
