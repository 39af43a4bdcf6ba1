package experiments

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"testing"

	"repro/internal/model"
	"repro/internal/topology"
	"repro/internal/units"
	"repro/internal/workload"
)

// loadLatencySweep renders the registered loadlatency table: the open-loop
// load–latency curves on star, two-tier and the sharded 512-host
// three-tier fabric.
func loadLatencySweep(opts Options) (string, error) {
	tbl, err := RunID("loadlatency", opts)
	if err != nil {
		return "", err
	}
	return tbl.String(), nil
}

func TestLoadLatencyGoldenFile(t *testing.T) {
	got, err := loadLatencySweep(goldenOpts(0)) // default pool: the path users run
	if err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "loadlatency_sweep.golden")
	if *updateGolden {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("missing golden file (regenerate with -update): %v", err)
	}
	if got != string(want) {
		t.Errorf("loadlatency sweep diverged from committed golden (regenerate with -update if the model change is intentional):\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

// TestLoadLatencyParallelMatchesSequential locks the open-loop subsystem
// into the parallelism contract: the sweep renders byte-identically from
// the sequential reference path and the worker pool.
func TestLoadLatencyParallelMatchesSequential(t *testing.T) {
	seq, err := loadLatencySweep(goldenOpts(1))
	if err != nil {
		t.Fatal(err)
	}
	par, err := loadLatencySweep(goldenOpts(4))
	if err != nil {
		t.Fatal(err)
	}
	if seq != par {
		t.Errorf("parallel loadlatency sweep diverged from sequential:\n--- sequential ---\n%s--- parallel ---\n%s", seq, par)
	}
}

// TestLoadLatencyKnee is the acceptance criterion of the scenario family:
// along every variant's load series, sojourn p99 is monotone non-decreasing
// and shows a visible knee — the top-of-sweep tail is several times the
// low-load tail, with the blow-up arriving before load 1.0.
func TestLoadLatencyKnee(t *testing.T) {
	d, ok := Lookup("loadlatency")
	if !ok {
		t.Fatal("loadlatency not registered")
	}
	rps, err := d.Spec.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	opts := goldenOpts(0)
	curves := map[string][]float64{} // variant -> p99 in load order
	var variants []string
	for _, rp := range rps {
		var results []Result
		for _, seed := range opts.Seeds {
			res, err := Run(rp.Point, opts, seed)
			if err != nil {
				t.Fatal(err)
			}
			results = append(results, res)
		}
		v := rp.Labels[0]
		if _, seen := curves[v]; !seen {
			variants = append(variants, v)
		}
		curves[v] = append(curves[v], ReduceSeeds(results).value("sojourn_p99_us"))
	}
	loads := d.Spec.Sweep[1].Loads
	for _, v := range variants {
		p99 := curves[v]
		if len(p99) != len(loads) {
			t.Fatalf("%s: %d points for %d loads", v, len(p99), len(loads))
		}
		for i := 1; i < len(p99); i++ {
			if p99[i] < p99[i-1] {
				t.Errorf("%s: sojourn p99 not monotone: %.2f us at load %.2f < %.2f us at load %.2f",
					v, p99[i], loads[i], p99[i-1], loads[i-1])
			}
		}
		if loads[len(loads)-1] >= 1.0 {
			t.Fatalf("load series tops out at %.2f; the knee must appear before saturation", loads[len(loads)-1])
		}
		if p99[0] <= 0 {
			t.Fatalf("%s: no sojourn samples at load %.2f", v, loads[0])
		}
		if ratio := p99[len(p99)-1] / p99[0]; ratio < 3 {
			t.Errorf("%s: no visible knee: p99 grew only %.1fx from load %.2f to %.2f", v, ratio, loads[0], loads[len(loads)-1])
		}
	}
}

// openLoopShardPoint is a three-tier open-loop point the shard-equivalence
// tests replay at several shard counts: Poisson openbsg senders spread
// across pods plus a fixed-rate openlsg probe, on the 16-host fabric of
// shardEquivSpec.
func openLoopShardPoint(shards int) Point {
	return Point{
		Topology: topology.SpecFatTree(shardEquivSpec),
		Shards:   shards,
		Workload: Workload{
			{Kind: GroupOpenBSG, Count: 6, Payload: 4096,
				Arrival: &Arrival{Kind: ArrivalPoisson, RateMps: 1.4e6}},
			{Kind: GroupOpenLSG,
				Arrival: &Arrival{Kind: ArrivalFixed, RateMps: 2e5}},
		},
	}
}

// TestOpenLoopShardEquivalence is the satellite property test: the
// arrival schedule — and everything downstream of it — is a pure function
// of (seed, group index), so an open-loop run repeats byte-identically at
// shards 1, 2 and 4, under both the sequential round-based barrier and
// the channel-based parallel one.
func TestOpenLoopShardEquivalence(t *testing.T) {
	for _, seed := range []uint64{1, 2} {
		var base Result
		var have bool
		for _, shards := range []int{1, 2, 4} {
			for _, parallel := range []int{1, 0} {
				opts := goldenOpts(parallel)
				opts.Seeds = nil // Run takes the seed directly
				res, err := Run(openLoopShardPoint(shards), opts, seed)
				if err != nil {
					t.Fatal(err)
				}
				if !have {
					base, have = res, true
					continue
				}
				if !reflect.DeepEqual(res, base) {
					t.Errorf("seed %d: shards=%d parallel=%d diverged from the sequential single-shard run:\ngot  %+v\nwant %+v",
						seed, shards, parallel, res, base)
				}
			}
		}
		if base.SojournP99Us <= 0 || base.DeliveredGbps <= 0 {
			t.Errorf("seed %d: open-loop point measured nothing (p99=%.2f delivered=%.2f); the equivalence held vacuously",
				seed, base.SojournP99Us, base.DeliveredGbps)
		}
	}
}

// TestOpenLoopScheduleMatchesWorkload pins the spec-to-subsystem seam: the
// arrival schedule the experiments layer runs is exactly
// workload.Schedule(seed, group index), independent of topology, shard
// count, faults or group placement — the label contract of DESIGN.md.
func TestOpenLoopScheduleMatchesWorkload(t *testing.T) {
	a := Arrival{Kind: ArrivalPoisson, RateMps: 1e6}
	horizon := units.Time(0).Add(800 * units.Microsecond)
	// Group index 1 (the probe group of openLoopShardPoint): the schedule
	// must depend on the index within the workload, nothing else.
	want := workload.Schedule(5, 1, workload.Arrival{Kind: a.Kind, RateMps: a.RateMps}, horizon)
	if len(want) == 0 {
		t.Fatal("empty reference schedule")
	}
	got := workload.Schedule(5, 1, workload.Arrival{Kind: a.Kind, RateMps: a.RateMps}, horizon)
	if !reflect.DeepEqual(got, want) {
		t.Fatal("workload.Schedule is not reproducible")
	}
	// And the offered-load identity the metrics report: scheduled arrivals
	// inside the measurement window drive offered_gbps, so two seeds with
	// the same spec differ only through their sealed streams.
	p := openLoopShardPoint(1)
	opts := goldenOpts(1)
	opts.Seeds = nil
	r1, err := Run(p, opts, 5)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Run(p, opts, 5)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(r1, r2) {
		t.Errorf("same-seed open-loop runs diverged:\n%+v\n%+v", r1, r2)
	}
	if r1.OfferedGbps <= 0 {
		t.Error("offered_gbps not populated")
	}
}

// TestLoadLatencySpecRoundTrip locks the arrival block into the JSON
// fixed-point contract: Marshal -> Parse -> Marshal is unchanged, so a
// served or exported loadlatency spec reruns identically.
func TestLoadLatencySpecRoundTrip(t *testing.T) {
	d, ok := Lookup("loadlatency")
	if !ok {
		t.Fatal("loadlatency not registered")
	}
	b1, err := d.Spec.MarshalIndent()
	if err != nil {
		t.Fatal(err)
	}
	s2, err := ParseSpec(b1)
	if err != nil {
		t.Fatalf("exported loadlatency spec does not re-parse: %v", err)
	}
	b2, err := s2.MarshalIndent()
	if err != nil {
		t.Fatal(err)
	}
	if string(b1) != string(b2) {
		t.Errorf("loadlatency spec JSON is not a fixed point:\n--- first ---\n%s--- second ---\n%s", b1, b2)
	}
}

// TestAxisLoadRates pins the load axis arithmetic: at load L with one
// rate-driven open group, rate_mps = L x link_bytes_per_sec / wire_size,
// where the link is the drain's host link — the profile's cable, or a
// fat-tree's host_link override.
func TestAxisLoadRates(t *testing.T) {
	hostLink := model.LinkParams{Bandwidth: 28 * units.Gbps, Propagation: 3 * units.Nanosecond}
	for _, tc := range []struct {
		topo topology.Spec
		bps  float64
	}{
		{topology.SpecStar, 56e9},
		{topology.SpecFatTree(topology.FatTreeSpec{Leaves: 2, HostsPerLeaf: 4, Spines: 1, HostLink: &hostLink}), 28e9},
	} {
		base := loadLatencyPoint(tc.topo, 5, 0)
		spec := Spec{
			Base:    &base,
			Sweep:   []Axis{{Field: AxisLoad, Loads: []float64{0.5}}},
			Collect: []string{"offered_gbps"},
		}
		rps, err := spec.Resolve()
		if err != nil {
			t.Fatal(err)
		}
		got := rps[0].Point.Workload[0].Arrival.RateMps
		// 4096 B payload + 52 B header (one segment at MTU 4096).
		want := 0.5 * tc.bps / 8 / 4148
		if diff := got/want - 1; diff > 1e-9 || diff < -1e-9 {
			t.Errorf("%s: load 0.5 rewrote rate_mps to %.1f, want %.1f (half the %.0f Gb/s host link)", tc.topo.Label(), got, want, tc.bps/1e9)
		}
		// The base point must be untouched (copy-on-write through the axis).
		if base.Workload[0].Arrival.RateMps != 1 {
			t.Errorf("%s: load axis mutated the base point's arrival (rate_mps=%g)", tc.topo.Label(), base.Workload[0].Arrival.RateMps)
		}
		if fmt.Sprintf("%.2f", 0.5) != rps[0].Labels[0] {
			t.Errorf("%s: load label %q, want %q", tc.topo.Label(), rps[0].Labels[0], strconv.FormatFloat(0.5, 'f', 2, 64))
		}
	}
}
