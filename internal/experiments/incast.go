package experiments

import (
	"fmt"

	"repro/internal/topology"
)

// The fat-tree scenario suite: the paper's §V convergence pattern — many
// senders, one drain port — generalized from the fixed 7-node rack to
// arbitrary two-layer fat-trees, expressed as registry Specs:
//
//   - incast: N-to-1 incast depth sweeps over several fabric sizes, the
//     direct generalization of Fig. 7a/7b.
//   - alltoall: M-to-N shift-pattern all-to-all, where destination-spread
//     routing exercises every spine instead of one drain port.
//   - crossspine: a converged LSG+BSG mix in which the probe either shares
//     the incast drain port or rides a disjoint spine path — showing that
//     the congestion the paper measures is port-local, so a
//     routing-disjoint probe keeps its zero-load latency.

// IncastFabrics are the fabric sizes of the incast sweeps: every size
// supports at least 8 bulk sources beyond the probe and the drain host.
var IncastFabrics = []topology.FatTreeSpec{
	{Leaves: 2, HostsPerLeaf: 5, Spines: 1},
	{Leaves: 3, HostsPerLeaf: 4, Spines: 2},
	{Leaves: 4, HostsPerLeaf: 4, Spines: 2},
}

// IncastDepths are the N-to-1 convergence depths of the sweep.
var IncastDepths = []int{2, 4, 8}

// AllToAllFabrics are the fabric sizes of the all-to-all sweep.
var AllToAllFabrics = []topology.FatTreeSpec{
	{Leaves: 2, HostsPerLeaf: 3, Spines: 1},
	{Leaves: 3, HostsPerLeaf: 3, Spines: 2},
	{Leaves: 3, HostsPerLeaf: 3, Spines: 3},
}

// crossSpineSpec is the fabric of the cross-spine mix: two spines, so the
// probe's path and the incast's path can be made spine-disjoint by choice
// of destination (uplinks are picked by destination id modulo the uplink
// count).
var crossSpineSpec = topology.FatTreeSpec{Leaves: 3, HostsPerLeaf: 3, Spines: 2}

func fatTreeSpecs(fts []topology.FatTreeSpec) []topology.Spec {
	out := make([]topology.Spec, len(fts))
	for i, ft := range fts {
		out[i] = topology.SpecFatTree(ft)
	}
	return out
}

func registerFatTreeSuite() {
	// incast generalizes the converged-traffic experiment (Fig. 7a/7b)
	// across fabric sizes: for each fabric and incast depth N, N bulk
	// senders spread across the leaves converge on the last host while a
	// latency probe crosses the whole fabric to the same drain port.
	Register(Definition{
		ID:      "incast",
		Title:   "Fat-tree incast: LSG RTT and drain goodput vs fabric size and incast depth",
		Columns: []string{"fabric", "incast", "lsg_p50_us", "lsg_p999_us", "drain_gbps", "samples"},
		Notes: []string{
			"fabric LxH+Ss = L leaves x H hosts/leaf + S spines; senders fill leaf-by-leaf",
			"probe and senders share the drain port: RTT grows with depth as in Fig. 7a, regardless of fabric size",
		},
		Spec: Spec{
			Base: &Point{
				Topology: topology.SpecFatTree(IncastFabrics[0]),
				Workload: Workload{
					{Kind: GroupBSG, Count: 8, Payload: 4096},
					{Kind: GroupLSG},
				},
			},
			Sweep: []Axis{
				{Field: AxisTopology, Topologies: fatTreeSpecs(IncastFabrics)},
				{Field: AxisBSGs, Counts: IncastDepths},
			},
			Collect: []string{"lsg_p50_us", "lsg_p999_us", "bulk_total_gbps", "lsg_samples"},
		},
	})

	// alltoall sweeps an M-to-N all-to-all (every host both sends and
	// receives) across fabric sizes, reporting aggregate goodput and the
	// min/max fairness across destinations. More spines admit more
	// aggregate cross-leaf bandwidth: the inverse of the incast story.
	Register(Definition{
		ID:      "alltoall",
		Title:   "Fat-tree all-to-all: aggregate goodput vs fabric size (Gb/s)",
		Columns: []string{"fabric", "flows", "total_gbps", "per_host_gbps", "fairness"},
		Notes: []string{
			"shift-pattern all-to-all: L-1 cross-leaf rounds, so every flow crosses the spine layer",
			"fairness = min/max per-destination goodput (1 = even); it dips when destination ids collide modulo the uplink count",
		},
		Spec: Spec{
			Base: &Point{
				Topology: topology.SpecFatTree(AllToAllFabrics[0]),
				Workload: Workload{{Kind: GroupAllToAll, Payload: 4096}},
			},
			Sweep:   []Axis{{Field: AxisTopology, Topologies: fatTreeSpecs(AllToAllFabrics)}},
			Collect: []string{"bulk_total_gbps", "fairness"},
		},
		Reduce: allToAllReduce,
	})

	// crossspine contrasts a latency probe that shares the incast drain
	// port with one that crosses the fabric on a disjoint spine path, at
	// several incast depths. Shared-path medians climb per-sender as in
	// Fig. 7a; the disjoint probe holds its zero-load latency because the
	// standing queues live in per-port VL buffers its packets never visit.
	sharedProbe := Point{
		Topology: topology.SpecFatTree(crossSpineSpec),
		Workload: Workload{
			{Kind: GroupBSG, Count: 6, Payload: 4096},
			{Kind: GroupLSG},
		},
	}
	disjointProbe := Point{
		Topology: topology.SpecFatTree(crossSpineSpec),
		Workload: Workload{
			{Kind: GroupBSG, Count: 6, Payload: 4096},
			// The drain's neighbor: its odd node id routes over the other
			// spine into a different egress port.
			{Kind: GroupLSG, Dst: ptr(crossSpineSpec.NumHosts() - 2)},
		},
	}
	Register(Definition{
		ID:      "crossspine",
		Title:   "Converged LSG+BSG mix across spines: shared drain port vs disjoint spine path",
		Columns: []string{"probe_path", "incast", "lsg_p50_us", "lsg_p999_us", "bulk_gbps"},
		Notes: []string{
			"fabric " + crossSpineSpec.String() + "; probe host 0 -> last leaf, bulk incast on the last host",
			"disjoint = probe targets the drain's neighbor, routed over the other spine to another port",
		},
		Spec: Spec{
			Sweep: []Axis{
				{Field: AxisVariant, Variants: []Variant{
					{Name: "shared-port", Point: sharedProbe},
					{Name: "disjoint-spine", Point: disjointProbe},
				}},
				{Field: AxisBSGs, Counts: []int{2, 4, 6}},
			},
			Collect: []string{"lsg_p50_us", "lsg_p999_us", "bulk_total_gbps"},
		},
	})
}

// allToAllRounds is an alltoall group's shift-round count: Count, or one
// round per other leaf when Count is 0.
func allToAllRounds(g Group, ft *topology.FatTreeSpec) int {
	if g.Count > 0 {
		return g.Count
	}
	return ft.TotalLeaves() - 1
}

// allToAllReduce renders an all-to-all point: its flow count (one per host
// and shift round), total and per-host goodput, and destination fairness.
var allToAllReduce = rowReduce(func(pr PointResult) []string {
	ft := pr.Point.Topology.FatTree
	flows := 0
	for _, g := range pr.Point.Workload {
		if g.Kind == GroupAllToAll {
			flows += ft.NumHosts() * allToAllRounds(g, ft)
		}
	}
	total := pr.M.value("bulk_total_gbps")
	return []string{
		fmt.Sprint(flows),
		f2(total),
		f2(total / float64(ft.NumHosts())),
		pr.M.cell("fairness"),
	}
})
