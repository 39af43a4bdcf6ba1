package experiments

import (
	"testing"

	"repro/internal/topology"
)

// bigFabricSweep renders one of the bigfabric tables. The registered specs
// carry Shards: 4, so these goldens exercise the sharded runner end to end —
// per-pod engines, cross-shard core links, the conservative barrier.
func bigFabricSweep(id string, opts Options) (string, error) {
	tbl, err := RunID(id, opts)
	if err != nil {
		return "", err
	}
	return tbl.String(), nil
}

func TestBigFabricGoldenFiles(t *testing.T) {
	for _, id := range []string{"bigfabric-incast", "bigfabric-alltoall"} {
		t.Run(id, func(t *testing.T) {
			got, err := bigFabricSweep(id, goldenOpts(0)) // default pool: the path users run
			if err != nil {
				t.Fatal(err)
			}
			checkGolden(t, id+"_sweep.golden", got)
		})
	}
}

// shardEquivSpec is the small three-tier fabric of the shard-equivalence
// tests: 4 pods of 2x2+1s, 16 hosts, so shards 1, 2 and 4 are all valid and
// the full suite stays fast enough for -race in CI (make race).
var shardEquivSpec = topology.FatTreeSpec{Tiers: 3, Pods: 4, Leaves: 2, HostsPerLeaf: 2, Spines: 1}

// shardEquivDefinition builds a runnable definition around one workload at a
// given shard count: the id and collect list are held constant across shard
// counts so the rendered tables can be compared byte for byte.
func shardEquivDefinition(id string, w Workload, shards int, collect []string) Definition {
	return Definition{
		ID:      id,
		Title:   "Shard equivalence: " + id,
		Columns: []string{"num_bsgs", "p50_us", "p999_us", "total_gbps", "samples"},
		Spec: Spec{
			Base: &Point{
				Topology: topology.SpecFatTree(shardEquivSpec),
				Shards:   shards,
				Workload: w,
			},
			Collect: collect,
		},
	}
}

// closedCollect is the closed-loop table shape shared by the incast and
// all-to-all equivalence cases.
var closedCollect = []string{"lsg_p50_us", "lsg_p999_us", "bulk_total_gbps", "lsg_samples"}

// TestShardEquivalenceTables is the acceptance criterion of the sharded
// runner: for an incast and an all-to-all on a three-tier fabric, shards 1,
// 2 and 4 must render byte-identical result tables. This goes beyond the
// topology-level completion-time test (fattree3_test.go): it runs the full
// experiment pipeline — warmup trimming, percentile extraction, table
// formatting — through the coordinator.
func TestShardEquivalenceTables(t *testing.T) {
	cases := map[string]struct {
		w       Workload
		collect []string
	}{
		"incast": {
			w: Workload{
				{Kind: GroupBSG, Count: 8, Payload: 4096},
				{Kind: GroupLSG},
			},
			collect: closedCollect,
		},
		"alltoall": {
			w: Workload{
				{Kind: GroupAllToAll, Count: 2, Payload: 4096},
			},
			collect: closedCollect,
		},
		// The open-loop point of the satellite property test: the Poisson
		// schedule is a pure function of (seed, group), so the rendered
		// table — offered and delivered goodput, sojourn tails, backlog —
		// must not move with the shard count either.
		"openloop": {
			w: Workload{
				{Kind: GroupOpenBSG, Count: 6, Payload: 4096,
					Arrival: &Arrival{Kind: ArrivalPoisson, RateMps: 1.2e6}},
				{Kind: GroupOpenLSG,
					Arrival: &Arrival{Kind: ArrivalFixed, RateMps: 2e5}},
			},
			collect: []string{"offered_gbps", "delivered_gbps", "sojourn_p99_us", "backlog_max"},
		},
	}
	for name, tc := range cases {
		w := tc.w
		t.Run(name, func(t *testing.T) {
			render := func(shards int) string {
				tbl, err := RunSpec(shardEquivDefinition("shard-equiv-"+name, w, shards, tc.collect), goldenOpts(1))
				if err != nil {
					t.Fatal(err)
				}
				return tbl.String()
			}
			ref := render(1)
			for _, shards := range []int{2, 4} {
				if got := render(shards); got != ref {
					t.Errorf("shards=%d table diverged from shards=1:\n--- shards=1 ---\n%s--- shards=%d ---\n%s", shards, ref, shards, got)
				}
			}
		})
	}
}
