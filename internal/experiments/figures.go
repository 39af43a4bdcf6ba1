package experiments

import (
	"fmt"
	"strconv"

	"repro/internal/analytic"
	"repro/internal/model"
	"repro/internal/topology"
)

// The paper's figures as registry entries. Each is a declarative Spec (the
// grid that runs) and its published column names; most render through the
// generic layout (axis labels, then the Collect metrics). A ReduceFunc
// remains only where a table derives cells from the metrics or unrolls an
// axis into columns. Reduce functions receive point results in grid order,
// so parallel sweeps assemble byte-identical tables — the goldens under
// testdata/ lock this.

// ptr is a literal-friendly int pointer for Group.Src/Dst overrides.
func ptr(i int) *int { return &i }

// intRange returns [lo, hi] inclusive.
func intRange(lo, hi int) []int {
	out := make([]int, 0, hi-lo+1)
	for n := lo; n <= hi; n++ {
		out = append(out, n)
	}
	return out
}

// rowReduce renders one row per point: every axis label, then the cells
// returned for the point.
func rowReduce(cells func(pr PointResult) []string) ReduceFunc {
	return func(t *Table, pts []PointResult) error {
		for _, pr := range pts {
			t.AddRow(append(append([]string(nil), pr.Labels...), cells(pr)...)...)
		}
		return nil
	}
}

// wideReduce renders one row per outer-axis value, unrolling the innermost
// axis (length inner) into repeated groups of the named metrics — the
// classic "one column pair per policy/topology" layout.
func wideReduce(inner int, metrics ...string) ReduceFunc {
	return func(t *Table, pts []PointResult) error {
		if inner <= 0 || len(pts)%inner != 0 {
			return fmt.Errorf("experiments: wide layout needs a multiple of %d points, got %d (was the sweep edited? drop the registered id for the generic layout)", inner, len(pts))
		}
		for base := 0; base < len(pts); base += inner {
			row := []string{pts[base].Labels[0]}
			for i := 0; i < inner; i++ {
				row = append(row, pts[base+i].M.cells(metrics...)...)
			}
			t.AddRow(row...)
		}
		return nil
	}
}

// starPoint is the paper's rack with the given workload, hardware profile.
func starPoint(w Workload) Point {
	return Point{Topology: topology.SpecStar, Workload: w}
}

func registerFigures() {
	bothEnds := []topology.Spec{topology.SpecBackToBack, topology.SpecStar}

	// Figure 4: RPerf RTT for different payload sizes, with and without
	// the switch, median and 99.9th percentile.
	Register(Definition{
		ID: "fig4", Paper: true,
		Title:   "RPerf RTT vs payload, with and without the switch (ns)",
		Columns: []string{"payload_B", "p50_noswitch_ns", "p999_noswitch_ns", "p50_switch_ns", "p999_switch_ns"},
		Spec: Spec{
			Base: &Point{Topology: topology.SpecBackToBack, Workload: Workload{{Kind: GroupRPerf, Payload: 64}}},
			Sweep: []Axis{
				{Field: AxisPayload, Payloads: PayloadSweep},
				{Field: AxisTopology, Topologies: bothEnds},
			},
			Collect: []string{"rperf_p50_ns", "rperf_p999_ns"},
		},
		Reduce: wideReduce(2, "rperf_p50_ns", "rperf_p999_ns"),
	})

	// Figure 5: one-to-one BSG bandwidth vs payload, with and without the
	// switch.
	Register(Definition{
		ID: "fig5", Paper: true,
		Title:   "One-to-one bandwidth vs payload (Gb/s)",
		Columns: []string{"payload_B", "noswitch_gbps", "switch_gbps"},
		Spec: Spec{
			Base: &Point{Topology: topology.SpecBackToBack, Workload: Workload{{Kind: GroupBSG, Count: 1, Payload: 4096}}},
			Sweep: []Axis{
				{Field: AxisPayload, Payloads: PayloadSweep},
				{Field: AxisTopology, Topologies: bothEnds},
			},
			Collect: []string{"bulk_total_gbps"},
		},
		Reduce: wideReduce(2, "bulk_total_gbps"),
	})

	// Figure 6: end-to-end RTT reported by Perftest (median + tail) and
	// Qperf (mean only) through the switch.
	Register(Definition{
		ID: "fig6", Paper: true,
		Title:   "Perftest and Qperf end-to-end RTT through the switch (us)",
		Columns: []string{"payload_B", "perftest_p50_us", "perftest_p999_us", "qperf_mean_us"},
		Notes:   []string{"qperf does not report tail latency (paper §III)"},
		Spec: Spec{
			Base: &fig6Base,
			Sweep: []Axis{
				{Field: AxisPayload, Payloads: PayloadSweep},
			},
			Collect: []string{"perftest_p50_us", "perftest_p999_us", "qperf_mean_us"},
		},
	})

	// Figure 7a: LSG RTT vs the number of 4096 B BSGs on the hardware
	// profile.
	Register(Definition{
		ID: "fig7a", Paper: true,
		Title:   "Converged traffic: LSG RTT vs number of BSGs (us)",
		Columns: []string{"num_bsgs", "p50_us", "p999_us"},
		Spec: Spec{
			Base:    &convergedStar,
			Sweep:   []Axis{{Field: AxisBSGs, Counts: intRange(0, 5)}},
			Collect: []string{"lsg_p50_us", "lsg_p999_us"},
		},
	})

	// Figure 7b: total BSG bandwidth vs the number of BSGs.
	Register(Definition{
		ID: "fig7b", Paper: true,
		Title:   "Converged traffic: total BSG bandwidth vs number of BSGs (Gb/s)",
		Columns: []string{"num_bsgs", "total_gbps", "per_bsg_min", "per_bsg_max"},
		Spec: Spec{
			Base:    &Point{Topology: topology.SpecStar, Workload: Workload{{Kind: GroupBSG, Count: 5, Payload: 4096}}},
			Sweep:   []Axis{{Field: AxisBSGs, Counts: intRange(1, 5)}},
			Collect: []string{"bulk_total_gbps", "bulk_min_gbps", "bulk_max_gbps"},
		},
	})

	// Figure 8: LSG RTT as five BSGs sweep their payload size.
	Register(Definition{
		ID: "fig8", Paper: true,
		Title:   "LSG RTT vs BSG payload size, five BSGs (us)",
		Columns: []string{"bsg_payload_B", "p50_us", "p999_us"},
		Spec: Spec{
			Base:    &convergedStar,
			Sweep:   []Axis{{Field: AxisPayload, Payloads: PayloadSweep}},
			Collect: []string{"lsg_p50_us", "lsg_p999_us"},
		},
	})

	// Figure 9: total BSG bandwidth across the same sweep.
	Register(Definition{
		ID: "fig9", Paper: true,
		Title:   "Total BSG bandwidth vs BSG payload size, five BSGs (Gb/s)",
		Columns: []string{"bsg_payload_B", "total_gbps", "link_pct"},
		Spec: Spec{
			Base:    &Point{Topology: topology.SpecStar, Workload: Workload{{Kind: GroupBSG, Count: 5, Payload: 4096}}},
			Sweep:   []Axis{{Field: AxisPayload, Payloads: PayloadSweep}},
			Collect: []string{"bulk_total_gbps"},
		},
		Reduce: rowReduce(func(pr PointResult) []string {
			total := pr.M.value("bulk_total_gbps")
			return []string{f2(total), f1(total / 56 * 100)}
		}),
	})

	// Equation 2 (§VIII-B): the waiting-time bound versus the
	// frozen-occupancy prediction versus the simulator's measurement.
	Register(Definition{
		ID: "eq2", Paper: true,
		Title:   "LSG waiting time: paper Eq.2 bound vs frozen-occupancy model vs simulation (us)",
		Columns: []string{"num_bsgs", "eq2_us", "model_us", "simulated_us"},
		Notes: []string{
			"eq2 assumes permanently full buffers; the paper itself measures below it (§VIII-B)",
			"simulated = median LSG RTT minus the ~0.43 us zero-load RTT, OMNeT profile",
		},
		Spec: Spec{
			Base:    &convergedStarSim,
			Sweep:   []Axis{{Field: AxisBSGs, Counts: intRange(1, 5)}},
			Collect: []string{"lsg_p50_us"},
		},
		Reduce: rowReduce(func(pr PointResult) []string {
			fab := model.OMNeTSim()
			n, _ := strconv.Atoi(pr.Labels[0])
			eq2 := analytic.Eq2Wait(n, fab.Switch.VLWindow, fab.Link.Bandwidth)
			cfg := analytic.ConvergedConfig{Fabric: fab, NumBSGs: n, BSGPayload: 4096}
			pred := cfg.PredictLSGWait()
			sim := pr.M.value("lsg_p50_us") - 0.43
			if sim < 0 {
				sim = 0
			}
			return []string{f2(eq2.Microseconds()), f2(pred.Microseconds()), f2(sim)}
		}),
	})

	// Figure 10: LSG RTT vs BSG count in the OMNeT-style simulator profile
	// under FCFS and RR scheduling.
	Register(Definition{
		ID: "fig10", Paper: true,
		Title:   "Simulator profile: LSG RTT vs number of BSGs, FCFS vs RR (us)",
		Columns: []string{"num_bsgs", "fcfs_p50_us", "fcfs_p999_us", "rr_p50_us", "rr_p999_us"},
		Spec: Spec{
			Base: &convergedStarSim,
			Sweep: []Axis{
				{Field: AxisBSGs, Counts: intRange(0, 5)},
				{Field: AxisPolicy, Policies: []string{"fcfs", "rr"}},
			},
			Collect: []string{"lsg_p50_us", "lsg_p999_us"},
		},
		Reduce: wideReduce(2, "lsg_p50_us", "lsg_p999_us"),
	})

	// Figure 11: the multi-hop topology (two switches) under FCFS and RR.
	Register(Definition{
		ID: "fig11", Paper: true,
		Title:   "Multi-hop (two switches): LSG RTT under FCFS and RR (us)",
		Columns: []string{"policy", "p50_us", "p999_us"},
		Notes: []string{
			"LSG shares the inter-switch link with two BSGs: RR no longer protects it (head-of-line blocking, §VIII-B)",
		},
		Spec: Spec{
			Base: &Point{
				Profile:  model.ProfileSim,
				Topology: topology.SpecTwoTier,
				Workload: Workload{{Kind: GroupBSG, Count: 5, Payload: 4096}, {Kind: GroupLSG}},
			},
			Sweep:   []Axis{{Field: AxisPolicy, Policies: []string{"fcfs", "rr"}}},
			Collect: []string{"lsg_p50_us", "lsg_p999_us"},
		},
	})

	// Figure 12: the real LSG's RTT under the four QoS setups of §VIII-C.
	Register(Definition{
		ID: "fig12", Paper: true,
		Title:   "QoS: real-LSG RTT in different SL/VL setups (us)",
		Columns: []string{"setup", "p50_us", "p999_us"},
		Spec: Spec{
			Sweep:   []Axis{{Field: AxisVariant, Variants: fig12Setups()}},
			Collect: []string{"lsg_p50_us", "lsg_p999_us"},
		},
	})

	// Figure 13: per-BSG bandwidth under the gamed dedicated-SL setup
	// versus the shared-SL baseline.
	Register(Definition{
		ID: "fig13", Paper: true,
		Title:   "QoS gaming: per-BSG bandwidth (Gb/s)",
		Columns: []string{"setup", "bsg1", "bsg2", "bsg3", "bsg4", "bsg5/pretend", "total"},
		Notes: []string{
			"in 'dedicated+pretend' the fifth source is the pretend LSG on the latency SL (256 B, batched)",
		},
		Spec: Spec{
			Sweep: []Axis{{Field: AxisVariant, Variants: []Variant{
				{Name: "dedicated+pretend", Point: fig12Setups()[3].Point},
				{Name: "shared SL", Point: starPoint(Workload{{Kind: GroupBSG, Count: 5, Payload: 4096}})},
			}}},
			Collect: []string{"pretend_gbps", "bulk_total_gbps"},
		},
		Reduce: rowReduce(func(pr PointResult) []string {
			var cells []string
			for _, g := range pr.M.slotMeans(bsgSlots) {
				cells = append(cells, f2(g))
			}
			if hasGroup(pr.Point, GroupPretend) {
				cells = append(cells, pr.M.cell("pretend_gbps"))
			}
			return append(cells, pr.M.cell("bulk_total_gbps"))
		}),
	})
}

// Shared base points. They are package vars so figure definitions can take
// their address; axis application copies before mutating, so sharing is
// safe.
var (
	// fig6Base is the Fig. 6 baseline-tools rack: Perftest from host 0
	// and Qperf from host 1, both toward the destination server.
	fig6Base = starPoint(Workload{
		{Kind: GroupPerftest, Payload: 4096},
		{Kind: GroupQperf, Payload: 4096, Src: ptr(1)},
	})
	// convergedStar is the paper's converged-traffic setup: bulk senders
	// plus the latency probe on the hardware profile.
	convergedStar = starPoint(Workload{
		{Kind: GroupBSG, Count: 5, Payload: 4096},
		{Kind: GroupLSG},
	})
	// convergedStarSim is the same setup on the simulator profile.
	convergedStarSim = Point{
		Profile:  model.ProfileSim,
		Topology: topology.SpecStar,
		Workload: Workload{
			{Kind: GroupBSG, Count: 5, Payload: 4096},
			{Kind: GroupLSG},
		},
	}
)

// hasGroup reports whether the point's workload contains a group kind.
func hasGroup(p Point, kind string) bool {
	for _, g := range p.Workload {
		if g.Kind == kind {
			return true
		}
	}
	return false
}

// fig12Setups returns the four columns of Figure 12 in paper order.
func fig12Setups() []Variant {
	return []Variant{
		{Name: "no BSGs", Point: starPoint(Workload{{Kind: GroupLSG}})},
		{Name: "shared SL", Point: starPoint(Workload{
			{Kind: GroupBSG, Count: 5, Payload: 4096},
			{Kind: GroupLSG},
		})},
		{Name: "dedicated SL", Point: Point{
			Topology: topology.SpecStar, Policy: "vlarb", QoS: QoSDedicated,
			Workload: Workload{
				{Kind: GroupBSG, Count: 5, Payload: 4096},
				{Kind: GroupLSG, SL: 1},
			},
		}},
		{Name: "dedicated SL + pretend LSG", Point: Point{
			Topology: topology.SpecStar, Policy: "vlarb", QoS: QoSDedicated,
			Workload: Workload{
				{Kind: GroupBSG, Count: 4, Payload: 4096},
				{Kind: GroupPretend, SL: 1},
				{Kind: GroupLSG, SL: 1},
			},
		}},
	}
}
