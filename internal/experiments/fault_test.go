package experiments

import (
	"reflect"
	"testing"

	"repro/internal/topology"
)

// Fault-injection determinism and reliability tests. The contract extends
// the one in determinism_test.go: a fault run — drops drawn from the sealed
// RNG, flap events, retransmission timers — is a pure function of (spec,
// seed) at every shard count and under both barrier modes, and the RC
// transport delivers every operation exactly once despite the loss.

// faultSuiteGolden renders one registered fault suite as a formatted table.
func faultSuiteGolden(t *testing.T, id, golden string) {
	t.Helper()
	tbl, err := RunID(id, goldenOpts(0))
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, golden, tbl.String())
}

func TestFaultFlapGoldenFile(t *testing.T) { faultSuiteGolden(t, "faultflap", "fault_flap.golden") }
func TestFaultLossGoldenFile(t *testing.T) { faultSuiteGolden(t, "faultloss", "fault_loss.golden") }

// shardableFaultPoint is a three-tier point with every fault class armed:
// a mid-run flap on a pod uplink (its failover group spans the pod's two
// spines), Bernoulli loss on a seeded random link subset, a degraded-rate
// interval, and RC reliability recovering the losses.
func shardableFaultPoint(shards int) Point {
	return Point{
		Topology: topology.SpecFatTree(topology.FatTreeSpec{
			Tiers: 3, Pods: 4, Leaves: 2, HostsPerLeaf: 2, Spines: 2,
		}),
		Shards: shards,
		Workload: Workload{
			{Kind: GroupBSG, Count: 6, Payload: 4096},
			{Kind: GroupLSG},
		},
		Faults: &Faults{
			Links: []LinkFault{
				// The probe's modulo-chosen uplink toward the drain (node 15
				// is odd, so foreign routes leave leaf port 2+15%2 = 3).
				{Link: "pod0.leaf0.p3", DownUs: 300, UpUs: 400},
				{Link: "pod1.leaf0.p2", DegradedFromUs: 250, DegradedUntilUs: 450, RateScale: 4},
			},
			Random: &RandomFaults{Count: 24, DropProb: 0.02},
		},
	}
}

// TestFaultShardEquivalence locks the tentpole claim: the same fault
// schedule replays byte-identically at shard counts 1, 2 and 4, under both
// the sequential round-based barrier and the channel-based parallel one.
func TestFaultShardEquivalence(t *testing.T) {
	for _, seed := range []uint64{1, 2} {
		var base Result
		var have bool
		for _, shards := range []int{1, 2, 4} {
			for _, parallel := range []int{1, 0} {
				opts := goldenOpts(parallel)
				opts.Seeds = nil // Run takes the seed directly
				res, err := Run(shardableFaultPoint(shards), opts, seed)
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
		if base.FaultDrops == 0 || base.Retransmits == 0 {
			t.Errorf("seed %d: schedule injected no recoverable loss (drops=%d retx=%d); the equivalence held vacuously",
				seed, base.FaultDrops, base.Retransmits)
		}
	}
}

// TestFaultExactlyOnce is the transport-reliability property: under heavy
// random loss every operation still completes exactly once — the
// closed-loop probe never stalls (a lost, unrecovered op would hang it and
// collapse the sample count), no QP errors out, and duplicates from
// retransmission never double-complete (the counters and histograms repeat
// exactly across shard counts, which double counting would break).
func TestFaultExactlyOnce(t *testing.T) {
	for _, seed := range []uint64{3, 4, 5} {
		var base Result
		var have bool
		for _, shards := range []int{1, 2, 4} {
			opts := goldenOpts(0)
			opts.Seeds = nil
			res, err := Run(shardableFaultPoint(shards), opts, seed)
			if err != nil {
				t.Fatal(err)
			}
			if res.QPErrors != 0 {
				t.Errorf("seed %d shards %d: %d QPs exhausted retries under recoverable loss", seed, shards, res.QPErrors)
			}
			if res.FaultDrops == 0 || res.Retransmits == 0 {
				t.Errorf("seed %d shards %d: no loss was injected (drops=%d retx=%d)", seed, shards, res.FaultDrops, res.Retransmits)
			}
			if res.LSG.Count < 10 {
				t.Errorf("seed %d shards %d: probe collected only %d samples; a lost op stalled the closed loop", seed, shards, res.LSG.Count)
			}
			if !have {
				base, have = res, true
			} else if !reflect.DeepEqual(res, base) {
				t.Errorf("seed %d: shards=%d diverged under loss:\ngot  %+v\nwant %+v", seed, shards, res, base)
			}
		}
	}
}

// TestFaultSpecRoundTrip locks the Faults section into the JSON fixed-point
// contract: a fault point survives Marshal -> Parse -> Marshal unchanged.
func TestFaultSpecRoundTrip(t *testing.T) {
	for _, id := range []string{"faultflap", "faultloss"} {
		d, ok := Lookup(id)
		if !ok {
			t.Fatalf("%s not registered", id)
		}
		b1, err := d.Spec.MarshalIndent()
		if err != nil {
			t.Fatal(err)
		}
		s2, err := ParseSpec(b1)
		if err != nil {
			t.Fatalf("%s: reparse failed: %v", id, err)
		}
		b2, err := s2.MarshalIndent()
		if err != nil {
			t.Fatal(err)
		}
		if string(b1) != string(b2) {
			t.Errorf("%s: spec JSON is not a fixed point:\n--- first ---\n%s--- second ---\n%s", id, b1, b2)
		}
	}
}

// TestFaultValidation exercises the schedule validator's rejection paths.
func TestFaultValidation(t *testing.T) {
	good := shardableFaultPoint(1)
	bad := []func(*Point){
		func(p *Point) { p.Faults.Links = nil; p.Faults.Random = nil },
		func(p *Point) { p.Faults.Links[0].Link = "" },
		func(p *Point) { p.Faults.Links[0].DropProb = 1 },
		func(p *Point) { p.Faults.Links[0].UpUs = p.Faults.Links[0].DownUs },
		func(p *Point) { p.Faults.Links[1].RateScale = 0.5 },
		func(p *Point) { p.Faults.Random.Count = 0 },
		func(p *Point) { p.Faults.Random.DropProb = 0 },
		func(p *Point) { p.Faults.AckTimeoutUs = -1 },
		func(p *Point) { mr := 0; p.Faults.MaxRetries = &mr },
	}
	for i, mutate := range bad {
		p := good
		f := *good.Faults
		f.Links = append([]LinkFault(nil), good.Faults.Links...)
		r := *good.Faults.Random
		f.Random = &r
		p.Faults = &f
		mutate(&p)
		if err := p.validate("point"); err == nil {
			t.Errorf("mutation %d validated; want error", i)
		}
	}
	if err := good.validate("point"); err != nil {
		t.Errorf("base fault point rejected: %v", err)
	}
	// Unknown link names fail at install time, naming the bad link.
	p := good
	f := *good.Faults
	f.Links = []LinkFault{{Link: "no-such-wire", DropProb: 0.1}}
	f.Random = nil
	p.Faults = &f
	opts := goldenOpts(1)
	opts.Seeds = nil
	if _, err := Run(p, opts, 1); err == nil {
		t.Error("unknown link name ran; want install-time error")
	}
}
