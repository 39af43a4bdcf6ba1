package experiments

import (
	"fmt"

	"repro/internal/model"
	"repro/internal/topology"
	"repro/internal/units"
)

// The paper closes by arguing "better mechanisms are needed to provide
// performance isolation in a mixed traffic environment" (§IX) and sketches
// two candidates it could not evaluate on its fixed-function switch:
// a size-aware "fair" scheduling policy (§VIII-B) and per-SL/VL bandwidth
// limits (§VIII-C). The two registry entries below implement both and test
// them against the paper's own failure cases.

func registerExtensions() {
	// ext-spf evaluates the shortest-packet-first policy — an
	// approximation of the paper's proportional-fairness sketch — on the
	// single-hop converged setup (where RR already worked) and on the
	// multi-hop topology (where RR failed).
	hopNames := []string{"single-hop", "multi-hop"}
	policies := []string{"fcfs", "rr", "spf"}
	Register(Definition{
		ID:      "ext-spf",
		Title:   "Extension: shortest-packet-first vs FCFS/RR (LSG RTT us, total BSG Gb/s)",
		Columns: []string{"topology", "policy", "lsg_p50_us", "lsg_p999_us", "bsg_total_gbps"},
		Notes: []string{
			"SPF approximates the paper's §VIII-B fairness sketch: service time proportional to flow size",
			"single-hop: SPF protects the LSG like RR; multi-hop: it fails the same way (shared-link HOL)",
		},
		Spec: Spec{
			Base: &Point{
				Profile:  model.ProfileSim,
				Topology: topology.SpecStar,
				Workload: Workload{
					{Kind: GroupBSG, Count: 5, Payload: 4096},
					{Kind: GroupLSG},
				},
			},
			Sweep: []Axis{
				{Field: AxisTopology, Topologies: []topology.Spec{topology.SpecStar, topology.SpecTwoTier}},
				{Field: AxisPolicy, Policies: policies},
			},
			Collect: []string{"lsg_p50_us", "lsg_p999_us", "bulk_total_gbps"},
		},
		Reduce: func(t *Table, pts []PointResult) error {
			if len(pts) != len(hopNames)*len(policies) {
				return fmt.Errorf("experiments: ext-spf expects %d points, got %d", len(hopNames)*len(policies), len(pts))
			}
			for i, pr := range pts {
				t.AddRow(append([]string{hopNames[i/len(policies)], pr.Labels[1]},
					pr.M.cells("lsg_p50_us", "lsg_p999_us", "bulk_total_gbps")...)...)
			}
			return nil
		},
	})

	// ext-ratelimit evaluates the per-VL bandwidth cap against the
	// QoS-gaming attack of §VIII-C. The cap stops the pretend-LSG from
	// stealing bandwidth and restores the honest BSGs' shares. The real
	// probe's median survives because its small packets fit through
	// throttle gaps the gamer's larger batched messages cannot use — but
	// its tail inflates several-fold, the direction of the paper's
	// warning; a bursty latency flow (deeper than the bucket) would pay
	// the full predicted penalty.
	capped := func(gbps float64) Point {
		return Point{
			Topology: topology.SpecStar, Policy: "vlarb", QoS: QoSDedicated,
			VL1RateLimitGbps: gbps,
			Workload: Workload{
				{Kind: GroupBSG, Count: 4, Payload: 4096},
				{Kind: GroupPretend, SL: 1},
				{Kind: GroupLSG, SL: 1},
			},
		}
	}
	Register(Definition{
		ID:      "ext-ratelimit",
		Title:   "Extension: per-VL rate limit vs QoS gaming (Fig. 12/13 setup)",
		Columns: []string{"vl1_cap", "real_lsg_p50_us", "real_lsg_p999_us", "pretend_gbps", "honest_bsg_gbps"},
		Notes: []string{
			"cap applies to VL1, the latency-sensitive lane the pretend-LSG abuses",
			"the cap prevents the bandwidth theft; the real LSG's tail inflates (paper §VIII-C's warning), and bursts deeper than the bucket would pay more",
		},
		Spec: Spec{
			Sweep: []Axis{{Field: AxisVariant, Variants: []Variant{
				{Name: "none", Point: capped(0)},
				{Name: (10 * units.Gbps).String(), Point: capped(10)},
				{Name: (5 * units.Gbps).String(), Point: capped(5)},
			}}},
			Collect: []string{"lsg_p50_us", "lsg_p999_us", "pretend_gbps", "bulk_total_gbps"},
		},
		Reduce: rowReduce(func(pr PointResult) []string {
			honest := sum(pr.M.slotMeans(bsgSlots))
			return append(pr.M.cells("lsg_p50_us", "lsg_p999_us", "pretend_gbps"), f2(honest))
		}),
	})
}
