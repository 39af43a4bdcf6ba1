// Benchmark harness: one benchmark per table/figure in the paper's
// evaluation, plus ablation benches for the calibrated design choices
// DESIGN.md calls out. Each iteration regenerates the experiment at
// smoke-test scale; custom metrics report the headline quantity the figure
// plots so `go test -bench` output doubles as a results summary.
package repro_test

import (
	"strconv"
	"testing"

	"repro"
	"repro/internal/experiments"
	"repro/internal/model"
	"repro/internal/stats"
	"repro/internal/topology"
	"repro/internal/traffic"
	"repro/internal/units"
)

func benchOpts() experiments.Options {
	return experiments.Options{
		Measure: 2 * units.Millisecond,
		Warmup:  1 * units.Millisecond,
		Seeds:   []uint64{1},
	}
}

// benchFigure runs one experiment per iteration and reports a headline
// metric extracted from the table.
func benchFigure(b *testing.B, id string, metric string, row, col int) {
	var last float64
	for i := 0; i < b.N; i++ {
		tbl, err := experiments.RunID(id, benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		v, err := strconv.ParseFloat(tbl.Rows[row][col], 64)
		if err != nil {
			b.Fatalf("cell (%d,%d) = %q", row, col, tbl.Rows[row][col])
		}
		last = v
	}
	b.ReportMetric(last, metric)
}

// Figure 4: RPerf zero-load switch RTT (64 B median, ns).
func BenchmarkFig04(b *testing.B) { benchFigure(b, "fig4", "p50_switch_ns", 0, 3) }

// Figure 5: one-to-one bandwidth at 4096 B through the switch (Gb/s).
func BenchmarkFig05(b *testing.B) { benchFigure(b, "fig5", "gbps_4096B", 6, 2) }

// Figure 6: Perftest 64 B median through the switch (us).
func BenchmarkFig06(b *testing.B) { benchFigure(b, "fig6", "perftest_p50_us", 0, 1) }

// Figure 7a: LSG median RTT with five BSGs (us).
func BenchmarkFig07a(b *testing.B) { benchFigure(b, "fig7a", "lsg_p50_us_5bsg", 5, 1) }

// Figure 7b: total BSG bandwidth with five BSGs (Gb/s).
func BenchmarkFig07b(b *testing.B) { benchFigure(b, "fig7b", "total_gbps_5bsg", 4, 1) }

// Figure 8: LSG median RTT with five 512 B BSGs (us).
func BenchmarkFig08(b *testing.B) { benchFigure(b, "fig8", "lsg_p50_us_512B", 3, 1) }

// Figure 9: total BSG bandwidth at 128 B payloads (Gb/s).
func BenchmarkFig09(b *testing.B) { benchFigure(b, "fig9", "total_gbps_128B", 1, 1) }

// Equation 2: simulated LSG wait at five BSGs (us).
func BenchmarkEq2(b *testing.B) { benchFigure(b, "eq2", "sim_wait_us_5bsg", 4, 3) }

// Figure 10: simulator-profile FCFS LSG median at five BSGs (us).
func BenchmarkFig10(b *testing.B) { benchFigure(b, "fig10", "fcfs_p50_us_5bsg", 5, 1) }

// Figure 11: multi-hop RR LSG median (us).
func BenchmarkFig11(b *testing.B) { benchFigure(b, "fig11", "rr_p50_us", 1, 1) }

// Figure 12: real-LSG median under dedicated SL + pretend LSG (us).
func BenchmarkFig12(b *testing.B) { benchFigure(b, "fig12", "pretend_p50_us", 3, 1) }

// Figure 13: pretend-LSG goodput under the gamed QoS setup (Gb/s).
func BenchmarkFig13(b *testing.B) { benchFigure(b, "fig13", "pretend_gbps", 0, 5) }

// --- Ablations -----------------------------------------------------------

// Ablation: switch micro-architecture jitter off. The median is unchanged
// but the Fig. 4 tail gap collapses — the HW-vs-simulator distinction the
// paper draws in §VIII-B.
func BenchmarkAblationNoSwitchJitter(b *testing.B) {
	par := model.HWTestbed()
	par.Switch.JitterMean = 0
	par.Switch.BaseLatency = 203 * units.Nanosecond
	var gap float64
	for i := 0; i < b.N; i++ {
		cl := topology.Star(par, 7, 1)
		lsg, err := traffic.NewLSG(cl.NIC(0), 6, traffic.LSGConfig{})
		if err != nil {
			b.Fatal(err)
		}
		lsg.Start()
		cl.Eng.RunUntil(units.Time(2 * units.Millisecond))
		s := lsg.RTT().Summarize()
		gap = (s.P999 - s.Median).Nanoseconds()
	}
	b.ReportMetric(gap, "tailgap_ns")
}

// Ablation: egress rearbitration overhead off. Fig. 7b's bandwidth decline
// disappears (total stays ~53 Gb/s at five BSGs instead of ~48).
func BenchmarkAblationNoArbOverhead(b *testing.B) {
	par := model.HWTestbed()
	par.Switch.ArbOverheadMax = 0
	var total float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.RunFabric(experiments.Point{
			Topology: topology.SpecStar,
			Workload: experiments.Workload{{Kind: experiments.GroupBSG, Count: 5, Payload: 4096}},
		}, par, benchOpts(), 1)
		if err != nil {
			b.Fatal(err)
		}
		total = r.Total
	}
	b.ReportMetric(total, "total_gbps_5bsg")
}

// Ablation: credit window size sweep. The LSG's converged latency scales
// with the window, which is how Eq. 2's BufferSize term manifests.
func BenchmarkAblationWindow16KB(b *testing.B) { benchWindow(b, 16*units.KB) }

// BenchmarkAblationWindow64KB doubles the paper-calibrated window.
func BenchmarkAblationWindow64KB(b *testing.B) { benchWindow(b, 64*units.KB) }

func benchWindow(b *testing.B, w units.ByteSize) {
	par := model.HWTestbed()
	par.Switch.VLWindow = w
	par.Switch.VLWindowOverride = nil
	var med float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.RunFabric(experiments.Point{
			Topology: topology.SpecStar,
			Workload: experiments.Workload{
				{Kind: experiments.GroupBSG, Count: 5, Payload: 4096},
				{Kind: experiments.GroupLSG},
			},
		}, par, benchOpts(), 1)
		if err != nil {
			b.Fatal(err)
		}
		med = r.LSG.Median.Microseconds()
	}
	b.ReportMetric(med, "lsg_p50_us")
}

// Ablation: single send engine. RPerf's loopback no longer processes in
// parallel with the wire SEND, so the subtraction over-corrects and the
// reported "switch RTT" goes negative-biased (here: collapses toward
// zero) — demonstrating why §IV needs parallel QP processing.
func BenchmarkAblationSingleEngine(b *testing.B) {
	par := model.HWTestbed()
	par.NIC.SendEngines = 1
	var med float64
	for i := 0; i < b.N; i++ {
		cl := repro.NewCluster(par, 7, 1)
		res, err := cl.MeasureRTT(0, 6, repro.RTTConfig{Payload: 64, Samples: 500})
		if err != nil {
			b.Fatal(err)
		}
		med = res.Median.Nanoseconds()
	}
	b.ReportMetric(med, "biased_p50_ns")
}

// --- Sweep runner -----------------------------------------------------------

// benchSweep regenerates a registered sweep over two seeds on the scenario
// runner's single-worker reference path. Parallel tables are byte-identical
// to it (determinism_test.go, `make race`); their speedup depends on the
// box's free CPUs, not on the code.
func benchSweep(b *testing.B, id string) {
	opts := experiments.Options{
		Measure:  units.Millisecond,
		Warmup:   250 * units.Microsecond,
		Seeds:    []uint64{1, 2},
		Parallel: 1,
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunID(id, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSweepSequential is the Fig. 7a converged sweep: six scenarios.
func BenchmarkSweepSequential(b *testing.B) { benchSweep(b, "fig7a") }

// BenchmarkSweepIncastSequential is the fat-tree incast sweep: nine
// fabric x depth points (internal/experiments/incast.go), with 6-switch
// fabrics and up to eight converging senders per run.
func BenchmarkSweepIncastSequential(b *testing.B) { benchSweep(b, "incast") }

// --- Micro-benchmarks of the substrate ------------------------------------

// BenchmarkSimulatorEventRate measures raw steady-state event throughput of
// the discrete-event core under converged five-BSG traffic. Setup and
// convergence happen outside the timed region, so ns/op, B/op and allocs/op
// describe the per-packet hot path alone — the allocation-regression tests
// (alloc_test.go) pin the same loop at zero allocations. The events/op
// metric counts executed events per 50 us of simulated time: wake
// coalescing (DESIGN.md) cut it from 1472 to 1029 by eliding evaluations
// that provably observe a busy resource, so compare ns/op across
// snapshots with the event count in mind — less work per op, not just
// faster work.
func BenchmarkSimulatorEventRate(b *testing.B) {
	c := topology.Star(model.HWTestbed(), 7, 1)
	for j := 0; j < 5; j++ {
		bsg, err := traffic.NewBSG(c.NIC(j), c.NIC(6), traffic.BSGConfig{Payload: 4096})
		if err != nil {
			b.Fatal(err)
		}
		bsg.Start(0)
	}
	c.Eng.RunUntil(units.Time(units.Millisecond)) // converge
	start := c.Eng.Processed()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Eng.RunFor(50 * units.Microsecond)
	}
	b.StopTimer()
	b.ReportMetric(float64(c.Eng.Processed()-start)/float64(b.N), "events/op")
}

// BenchmarkHistogramRecord measures the latency-recording hot path.
func BenchmarkHistogramRecord(b *testing.B) {
	h := stats.NewHistogram()
	for i := 0; i < b.N; i++ {
		h.Record(int64(i%1000000) + 432000)
	}
	if h.Count() == 0 {
		b.Fatal("no records")
	}
}

// BenchmarkSwitchForwarding measures per-packet forwarding cost through
// the switch model (one-to-one, open loop). The pipeline is primed well past
// the credit-gate estimation windows before the timer starts, so the timed
// region is pure steady state and must stay at 0 allocs/op.
func BenchmarkSwitchForwarding(b *testing.B) {
	c := topology.Star(model.HWTestbed(), 7, 1)
	bsg, err := traffic.NewBSG(c.NIC(0), c.NIC(6), traffic.BSGConfig{Payload: 4096})
	if err != nil {
		b.Fatal(err)
	}
	bsg.Start(0)
	c.Eng.RunFor(100 * units.Microsecond) // prime the pipeline
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Eng.RunFor(units.Duration(628) * units.Nanosecond) // ~1 packet
	}
	if c.Switches[0].ForwardedPackets == 0 {
		b.Fatal("nothing forwarded")
	}
}

// BenchmarkRPerfIteration measures one full post-poll + loopback
// measurement cycle.
func BenchmarkRPerfIteration(b *testing.B) {
	cl := repro.NewBackToBack(repro.HWTestbed(), 1)
	b.ResetTimer()
	res, err := cl.MeasureRTT(0, 1, repro.RTTConfig{Payload: 64, Samples: uint64(b.N)})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(res.Median.Nanoseconds(), "rtt_p50_ns")
}
