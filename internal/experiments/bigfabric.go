package experiments

import (
	"repro/internal/model"
	"repro/internal/topology"
	"repro/internal/units"
)

// The bigfabric scenario family: the paper's convergence experiments at the
// scale where the latency-vs-bandwidth tradeoff gets interesting — three-tier
// fat-trees of 512 and 1024 hosts, run across shards by the conservative
// coordinator (Point.Shards). The 100 ns core cables (~20 m optics, a
// realistic pod-to-core run) set the lookahead, so an epoch spans many
// packet times and the barrier amortizes.

// bigCoreLink is the spine-core cable of the bigfabric family: port-rate
// bandwidth with a long-optics propagation delay. Exported per-family rather
// than inlined so the walkthrough in examples/bigfabric can cite one source
// of truth.
var bigCoreLink = model.LinkParams{
	Bandwidth:   56 * units.Gbps,
	Propagation: 100 * units.Nanosecond,
}

// BigFabricSpecs are the three-tier fabric sizes of the bigfabric sweeps,
// both within the SX6012's 12-port leaf/spine budget (the cores are larger
// director-class boxes, so no MaxPorts bound is declared):
//
//	8 pods  x (8 leaves x 8 hosts + 4 spines) + 4 cores = 512 hosts
//	16 pods x (8 leaves x 8 hosts + 4 spines) + 4 cores = 1024 hosts
var BigFabricSpecs = []topology.FatTreeSpec{
	{Tiers: 3, Pods: 8, Leaves: 8, HostsPerLeaf: 8, Spines: 4, CoreLink: &bigCoreLink},
	{Tiers: 3, Pods: 16, Leaves: 8, HostsPerLeaf: 8, Spines: 4, CoreLink: &bigCoreLink},
}

func registerBigFabric() {
	// bigfabric-incast scales the §V convergence pattern to 512/1024 hosts:
	// bulk senders spread leaf-by-leaf across every pod converge on the last
	// host of the last pod, while the latency probe crosses the full
	// three-tier diameter (leaf-spine-core-spine-leaf) from host 0.
	Register(Definition{
		ID:      "bigfabric-incast",
		Title:   "Three-tier incast at 512/1024 hosts: LSG RTT and drain goodput vs incast depth",
		Columns: []string{"fabric", "incast", "lsg_p50_us", "lsg_p999_us", "drain_gbps", "samples"},
		Notes: []string{
			"fabric PpLxH+Ss+Cc = P pods of (L leaves x H hosts + S spines) under C cores; 100ns core optics",
			"runs sharded (shards=4, one engine per pod group); results are byte-identical at any shard count",
		},
		Spec: Spec{
			Base: &Point{
				Topology: topology.SpecFatTree(BigFabricSpecs[0]),
				Shards:   4,
				Workload: Workload{
					{Kind: GroupBSG, Count: 8, Payload: 4096},
					{Kind: GroupLSG},
				},
			},
			Sweep: []Axis{
				{Field: AxisTopology, Topologies: fatTreeSpecs(BigFabricSpecs)},
				{Field: AxisBSGs, Counts: []int{8, 16}},
			},
			Collect: []string{"lsg_p50_us", "lsg_p999_us", "bulk_total_gbps", "lsg_samples"},
		},
	})

	// bigfabric-alltoall drives one cross-leaf shift round over all 512
	// hosts: every host sends to its neighbor one leaf over, so every flow
	// transits the spine layer and pod-crossing flows transit the cores.
	Register(Definition{
		ID:      "bigfabric-alltoall",
		Title:   "Three-tier all-to-all at 512 hosts: aggregate goodput and fairness",
		Columns: []string{"fabric", "flows", "total_gbps", "per_host_gbps", "fairness"},
		Notes: []string{
			"one shift round (count=1): 512 concurrent flows, each crossing the spine layer",
			"runs sharded (shards=4); fairness = min/max per-destination goodput",
		},
		Spec: Spec{
			Base: &Point{
				Topology: topology.SpecFatTree(BigFabricSpecs[0]),
				Shards:   4,
				Workload: Workload{{Kind: GroupAllToAll, Count: 1, Payload: 4096}},
			},
			Sweep:   []Axis{{Field: AxisTopology, Topologies: fatTreeSpecs(BigFabricSpecs[:1])}},
			Collect: []string{"bulk_total_gbps", "fairness"},
		},
		Reduce: allToAllReduce,
	})
}
