package ibswitch

// Property tests for the switch's arbitration invariants. These are
// white-box (package ibswitch) on purpose: the invariants live in
// unexported state — token-bucket fill levels, VL-arbitration deficit
// counters, the round-robin pointer — and the properties quantify over
// randomized operation sequences, driven by the repo's own deterministic
// rng so failures reproduce.

import (
	"testing"

	"repro/internal/ib"
	"repro/internal/model"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/units"
)

// Property: a token bucket whose consumers only consume after ready()
// grants them never holds a negative balance and never exceeds its burst,
// for any interleaving of time advances and grant sizes. A denied request
// always names a strictly future retry time.
func TestPropertyTokenBucketBounds(t *testing.T) {
	src := rng.New(42)
	for trial := 0; trial < 200; trial++ {
		rate := units.Bandwidth(1+src.Intn(100)) * units.Gbps
		burst := units.ByteSize(64 + src.Intn(16*1024))
		b := &tokenBucket{rate: rate, burst: burst, tokens: float64(burst)}
		now := units.Time(0)
		for op := 0; op < 100; op++ {
			now = now.Add(units.Duration(src.Intn(100_000))) // 0-100 ns
			size := units.ByteSize(1 + src.Intn(int(burst)))
			ok, retry := b.ready(now, size)
			if ok {
				b.consume(size)
			} else if retry <= now {
				t.Fatalf("trial %d op %d: denied request reports non-future retry %v at now %v", trial, op, retry, now)
			}
			if b.tokens < 0 {
				t.Fatalf("trial %d op %d: tokens went negative: %f", trial, op, b.tokens)
			}
			if b.tokens > float64(burst) {
				t.Fatalf("trial %d op %d: tokens %f exceed burst %d", trial, op, b.tokens, burst)
			}
		}
	}
}

// Property: a denied request of at most burst bytes becomes grantable at
// the retry time the bucket reported (the egress arbiter sleeps exactly
// until then, so an optimistic estimate would stall the port).
func TestPropertyTokenBucketRetryTimeSuffices(t *testing.T) {
	src := rng.New(7)
	for trial := 0; trial < 200; trial++ {
		rate := units.Bandwidth(1+src.Intn(100)) * units.Gbps
		burst := units.ByteSize(256 + src.Intn(8*1024))
		b := &tokenBucket{rate: rate, burst: burst, tokens: float64(burst)}
		now := units.Time(0)
		// Drain, then probe.
		b.consume(units.ByteSize(b.tokens))
		for op := 0; op < 50; op++ {
			now = now.Add(units.Duration(src.Intn(10_000)))
			size := units.ByteSize(1 + src.Intn(int(burst)))
			ok, retry := b.ready(now, size)
			if ok {
				b.consume(size)
				continue
			}
			if ok2, _ := b.ready(retry, size); !ok2 {
				t.Fatalf("trial %d op %d: request of %d B still denied at the promised retry time", trial, op, size)
			}
			// Roll back the refill bookkeeping side effect of the probe by
			// continuing from the later timestamp.
			now = retry
		}
	}
}

func propSwitch(t *testing.T, ports int) *Switch {
	t.Helper()
	return New(sim.New(), "prop", model.HWTestbed().Switch, ports, ports, rng.New(1))
}

func mkCandidate(inPort int, vl ib.VL, arrival units.Time, size units.ByteSize) candidate {
	return candidate{
		inPort: inPort,
		vl:     vl,
		qp: &queuedPacket{
			pkt:     &ib.Packet{Kind: ib.KindData, DestNode: 0, SL: ib.SL(vl)},
			arrival: arrival,
			size:    size,
		},
	}
}

// Property: round-robin arbitration is work-conserving and starvation-free.
// Whatever the eligible set, choose returns one of its members (the output
// never idles with traffic waiting), and an input port that stays eligible
// is served within NumPorts consecutive arbitration rounds.
func TestPropertyRRWorkConservingNoStarvation(t *testing.T) {
	const ports = 8
	sw := propSwitch(t, ports)
	sw.SetPolicy(RR)
	out := sw.Port(0)
	src := rng.New(99)
	// unserved[p] counts consecutive rounds where p was eligible but lost.
	var unserved [ports]int
	for round := 0; round < 2000; round++ {
		var eligible []candidate
		for p := 0; p < ports; p++ {
			if src.Intn(2) == 0 {
				continue
			}
			// One or two VL heads per eligible port.
			for v := 0; v <= src.Intn(2); v++ {
				eligible = append(eligible, mkCandidate(p, ib.VL(v), units.Time(round*1000+p), 64))
			}
		}
		if len(eligible) == 0 {
			continue
		}
		chosen := sw.choose(out, eligible)
		found := false
		for _, c := range eligible {
			if c == chosen {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("round %d: RR chose a candidate not in the eligible set: %+v", round, chosen)
		}
		for p := 0; p < ports; p++ {
			present := false
			for _, c := range eligible {
				if c.inPort == p {
					present = true
					break
				}
			}
			switch {
			case p == chosen.inPort:
				unserved[p] = 0
			case present:
				unserved[p]++
				if unserved[p] > ports {
					t.Fatalf("round %d: port %d eligible for %d consecutive rounds without service", round, p, unserved[p])
				}
			default:
				unserved[p] = 0 // ineligible rounds reset the clock
			}
		}
	}
}

// Property: FCFS always serves the globally oldest eligible head (ties by
// input port), i.e. it is work-conserving and age-ordered.
func TestPropertyFCFSServesOldest(t *testing.T) {
	src := rng.New(5)
	for trial := 0; trial < 500; trial++ {
		n := 1 + src.Intn(10)
		var eligible []candidate
		for i := 0; i < n; i++ {
			eligible = append(eligible, mkCandidate(src.Intn(8), 0, units.Time(src.Intn(50)), 64))
		}
		chosen := chooseFCFS(eligible)
		for _, c := range eligible {
			if c.qp.arrival < chosen.qp.arrival ||
				(c.qp.arrival == chosen.qp.arrival && c.inPort < chosen.inPort) {
				t.Fatalf("trial %d: FCFS chose arrival %v port %d over older arrival %v port %d",
					trial, chosen.qp.arrival, chosen.inPort, c.qp.arrival, c.inPort)
			}
		}
	}
}

// Property: VL-arbitration deficit counters replenish correctly — a
// replenish round raises every configured VL's budget, and no budget ever
// exceeds its table weight (the classic DRR cap that bounds burstiness).
func TestPropertyVLArbReplenishCap(t *testing.T) {
	src := rng.New(11)
	for trial := 0; trial < 200; trial++ {
		sw := propSwitch(t, 2)
		cfg := ib.VLArbConfig{
			High:      []ib.VLArbEntry{{VL: 1, Weight: ib.WeightUnits(1 + src.Intn(255))}},
			Low:       []ib.VLArbEntry{{VL: 0, Weight: ib.WeightUnits(1 + src.Intn(255))}},
			HighLimit: ib.WeightUnits(1 + src.Intn(255)),
		}
		if err := sw.SetVLArb(cfg); err != nil {
			t.Fatal(err)
		}
		st := &vlarbState{}
		weight := map[ib.VL]int64{1: cfg.High[0].Weight, 0: cfg.Low[0].Weight}
		for op := 0; op < 100; op++ {
			if src.Intn(3) == 0 {
				// Overdraw one VL, as serving a large packet does.
				vl := ib.VL(src.Intn(2))
				st.tokens[vl] -= int64(64 + src.Intn(4096))
			}
			before := st.tokens
			sw.replenish(st)
			for vl, w := range weight {
				if st.tokens[vl] > w {
					t.Fatalf("trial %d op %d: VL%d budget %d exceeds weight %d", trial, op, vl, st.tokens[vl], w)
				}
				if st.tokens[vl] < before[vl] {
					t.Fatalf("trial %d op %d: replenish lowered VL%d budget %d -> %d", trial, op, vl, before[vl], st.tokens[vl])
				}
				if before[vl] < w && st.tokens[vl] <= before[vl] {
					t.Fatalf("trial %d op %d: replenish did not raise under-cap VL%d budget %d", trial, op, vl, before[vl])
				}
			}
		}
	}
}

// Property: the VLArb chooser is work-conserving — whatever the eligible
// set and token state, it returns a member of the set (falling back to
// FCFS rather than idling when budgets are exhausted) and never charges a
// VL that had no eligible packet.
func TestPropertyVLArbChoosesEligible(t *testing.T) {
	src := rng.New(23)
	for trial := 0; trial < 300; trial++ {
		sw := propSwitch(t, 4)
		if err := sw.SetVLArb(ib.DedicatedVLArb()); err != nil {
			t.Fatal(err)
		}
		sw.SetPolicy(VLArb)
		out := sw.Port(0)
		out.arb.tokens[0] = int64(src.Intn(4096)) - 2048
		out.arb.tokens[1] = int64(src.Intn(4096)) - 2048
		out.arb.inited = true
		n := 1 + src.Intn(6)
		var eligible []candidate
		vlSeen := map[ib.VL]bool{}
		for i := 0; i < n; i++ {
			vl := ib.VL(src.Intn(2))
			vlSeen[vl] = true
			eligible = append(eligible, mkCandidate(src.Intn(4), vl, units.Time(src.Intn(100)), units.ByteSize(64+src.Intn(4096))))
		}
		before := out.arb.tokens
		chosen := sw.choose(out, eligible)
		found := false
		for _, c := range eligible {
			if c == chosen {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("trial %d: VLArb chose a candidate outside the eligible set", trial)
		}
		for vl := 0; vl < ib.NumVLs; vl++ {
			if !vlSeen[ib.VL(vl)] && out.arb.tokens[vl] < before[vl] {
				t.Fatalf("trial %d: VL%d charged %d tokens without an eligible packet",
					trial, vl, before[vl]-out.arb.tokens[vl])
			}
		}
	}
}

// Regression: a VL absent from both arbitration tables never earns tokens,
// so before the fix an overdrawn listed VL made the 64-round replenish
// loop give up and the FCFS safety valve then served the unlisted VL at
// full priority (its packet merely had to be older). The spec-faithful
// behavior is strict background priority: whenever any listed VL has an
// eligible packet, the unlisted VL must wait.
func TestPropertyVLArbUnlistedVLNeverBeatsListed(t *testing.T) {
	src := rng.New(31)
	for trial := 0; trial < 300; trial++ {
		sw := propSwitch(t, 4)
		if err := sw.SetVLArb(ib.DedicatedVLArb()); err != nil {
			t.Fatal(err)
		}
		sw.SetPolicy(VLArb)
		out := sw.Port(0)
		out.arb.inited = true
		// Overdraw the listed VLs far beyond what 64 replenish rounds can
		// repay, the state a streak of large packets leaves behind.
		out.arb.tokens[0] = -int64(1_000_000 + src.Intn(1_000_000))
		out.arb.tokens[1] = -int64(1_000_000 + src.Intn(1_000_000))
		var eligible []candidate
		// An unlisted-VL packet that is always the oldest...
		unlisted := ib.VL(2 + src.Intn(ib.NumVLs-2))
		eligible = append(eligible, mkCandidate(src.Intn(4), unlisted, 0, 4148))
		// ...competing against at least one listed-VL packet.
		n := 1 + src.Intn(4)
		for i := 0; i < n; i++ {
			eligible = append(eligible, mkCandidate(src.Intn(4), ib.VL(src.Intn(2)), units.Time(1+src.Intn(100)), 4148))
		}
		chosen := sw.choose(out, eligible)
		if chosen.vl == unlisted {
			t.Fatalf("trial %d: unlisted VL%d served while listed VLs had eligible packets (tokens %v)",
				trial, unlisted, out.arb.tokens[:2])
		}
	}
}

// With only unlisted-VL traffic eligible, the arbiter must still be
// work-conserving: the lossless model drains unconfigured VLs FCFS at
// background priority instead of deadlocking the credit loop.
func TestPropertyVLArbUnlistedVLDrainsWhenAlone(t *testing.T) {
	sw := propSwitch(t, 2)
	if err := sw.SetVLArb(ib.DedicatedVLArb()); err != nil {
		t.Fatal(err)
	}
	sw.SetPolicy(VLArb)
	out := sw.Port(0)
	eligible := []candidate{
		mkCandidate(0, 3, 10, 4148),
		mkCandidate(1, 5, 5, 64),
	}
	chosen := sw.choose(out, eligible)
	if chosen.vl != 5 {
		t.Fatalf("expected FCFS among unlisted VLs (oldest is VL5), got VL%d", chosen.vl)
	}
	// And the background service must not charge any listed VL's budget.
	for vl := 0; vl < 2; vl++ {
		if out.arb.tokens[vl] < 0 {
			t.Fatalf("background service charged listed VL%d", vl)
		}
	}
}
