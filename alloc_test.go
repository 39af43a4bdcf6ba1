// Allocation-regression tests: the lock that keeps the hot path at zero
// allocations per packet (DESIGN.md "Hot-path memory discipline"), and the
// budget that keeps building the largest benchmarked fabric cheap.
//
// Each ZeroAlloc test builds a fabric, runs it well past every transient
// that legitimately allocates — pipeline fill, pool and ring growth, the
// credit gate's rate-estimation windows — and then asserts with
// testing.AllocsPerRun that continuing the simulation performs zero heap
// allocations. Any future closure capture, map literal, or growing append
// on a per-packet path fails these tests immediately.
//
// TestBuildBudgetFatTree512 bounds the bytes and allocations of one
// 512-host fabric build, which every job of a 512-host sweep pays.
package repro_test

import (
	"runtime"
	"testing"

	"repro/internal/model"
	"repro/internal/topology"
	"repro/internal/traffic"
	"repro/internal/units"
)

// measureSteadyState warms c up to the given simulated time, then reports
// the average allocations of advancing the simulation by step. It drives
// the fabric through Cluster.RunUntil, so a sharded build steps through
// its coordinator (c.Eng is then shard 0's engine, whose count stands in
// for the fabric's).
func measureSteadyState(t *testing.T, c *topology.Cluster, warm units.Time, step units.Duration) float64 {
	t.Helper()
	c.RunUntil(warm)
	if c.Eng.Processed() == 0 {
		t.Fatal("warmup executed no events")
	}
	before := c.Eng.Processed()
	allocs := testing.AllocsPerRun(100, func() {
		c.RunUntil(c.Eng.Now().Add(step))
	})
	if c.Eng.Processed() == before {
		t.Fatal("steady-state window executed no events")
	}
	return allocs
}

// TestZeroAllocOneToOneForwarding pins the full one-to-one WRITE path —
// posting, segmentation, wire delivery, switch arbitration and forwarding,
// ACK generation and completion — at zero steady-state allocations.
func TestZeroAllocOneToOneForwarding(t *testing.T) {
	c := topology.Star(model.HWTestbed(), 7, 1)
	bsg, err := traffic.NewBSG(c.NIC(0), c.NIC(6), traffic.BSGConfig{Payload: 4096})
	if err != nil {
		t.Fatal(err)
	}
	bsg.Start(0)
	if allocs := measureSteadyState(t, c, units.Time(units.Millisecond), 20*units.Microsecond); allocs != 0 {
		t.Fatalf("one-to-one forwarding: %.2f allocs per steady-state step, want 0", allocs)
	}
	if bsg.Messages() == 0 {
		t.Fatal("BSG delivered no messages")
	}
}

// TestZeroAllocConvergedTraffic pins the paper's converged scenario — five
// BSGs plus a latency probe sharing one drain port, the Fig. 7a steady
// state — at zero allocations. This exercises the credit-limited path:
// blocked reservations, escrowed credit returns, arbitration among many
// inputs, and the LSG's closed RPerf loop with its loopback QP.
func TestZeroAllocConvergedTraffic(t *testing.T) {
	c := topology.Star(model.HWTestbed(), 7, 1)
	for i := 0; i < 5; i++ {
		bsg, err := traffic.NewBSG(c.NIC(i), c.NIC(6), traffic.BSGConfig{Payload: 4096})
		if err != nil {
			t.Fatal(err)
		}
		bsg.Start(0)
	}
	lsg, err := traffic.NewLSG(c.NIC(5), 6, traffic.LSGConfig{})
	if err != nil {
		t.Fatal(err)
	}
	lsg.Start()
	if allocs := measureSteadyState(t, c, units.Time(2*units.Millisecond), 20*units.Microsecond); allocs != 0 {
		t.Fatalf("converged 5-BSG+LSG traffic: %.2f allocs per steady-state step, want 0", allocs)
	}
	if lsg.RTT().Count() == 0 {
		t.Fatal("LSG recorded no samples")
	}
}

// TestZeroAllocFatTreeIncast pins a multi-switch fat-tree incast step at
// zero allocations: five senders spread over two leaves converge through
// two spines onto one drain host, exercising trunk arbitration, multi-hop
// credit loops, and cross-switch kicks.
func TestZeroAllocFatTreeIncast(t *testing.T) {
	spec := topology.FatTreeSpec{Leaves: 2, HostsPerLeaf: 3, Spines: 2}
	c, err := topology.FatTree(model.HWTestbed(), spec, 1)
	if err != nil {
		t.Fatal(err)
	}
	dst := spec.NumHosts() - 1
	for n := 0; n < dst; n++ {
		bsg, err := traffic.NewBSG(c.NIC(n), c.NIC(dst), traffic.BSGConfig{Payload: 4096})
		if err != nil {
			t.Fatal(err)
		}
		bsg.Start(0)
	}
	if allocs := measureSteadyState(t, c, units.Time(2*units.Millisecond), 20*units.Microsecond); allocs != 0 {
		t.Fatalf("fat-tree incast: %.2f allocs per steady-state step, want 0", allocs)
	}
}

// TestZeroAllocShardedFatTree pins the sharded path at zero steady-state
// allocations: a four-pod three-tier fabric on four shards, every host
// outside the last pod sending to that pod's last host, so all traffic
// crosses shards through the coordinator's epoch loop, the mailboxes and
// sent lists, and the split cross-shard credit loop. The coordinator runs
// the epochs on the calling goroutine; starting the shard workers
// allocates once per RunUntil.
func TestZeroAllocShardedFatTree(t *testing.T) {
	spec := topology.FatTreeSpec{Tiers: 3, Pods: 4, Leaves: 2, HostsPerLeaf: 2, Spines: 2}
	c, err := topology.FatTree3(model.HWTestbed(), spec, 1, 4)
	if err != nil {
		t.Fatal(err)
	}
	dst := spec.NumHosts() - 1
	for n := 0; n < 3*spec.Leaves*spec.HostsPerLeaf; n++ {
		bsg, err := traffic.NewBSG(c.NIC(n), c.NIC(dst), traffic.BSGConfig{Payload: 4096})
		if err != nil {
			t.Fatal(err)
		}
		bsg.Start(0)
	}
	if allocs := measureSteadyState(t, c, units.Time(2*units.Millisecond), 20*units.Microsecond); allocs != 0 {
		t.Fatalf("sharded fat-tree incast: %.2f allocs per steady-state step, want 0", allocs)
	}
}

// TestZeroAllocDeepResponder pins the send engines at zero steady-state
// allocations while the responder engines are deep: the fault-free 4 KiB
// all-to-all of the fault_loss spec's fat-tree (3 leaves of 3 hosts, 2
// spines), where every host runs a 256-deep WRITE pipeline to one host on
// each other leaf. A destination's responder engine queues the ACKs of its
// two senders' WRITEs, each behind its payload DMA: over the first 12 ms,
// 203 queued on average when the engine picks one, and up to 511. A queue
// that allocates per packet at depth fails here.
//
// The warm-up is 10 ms because the NICs' txPacket free lists keep reaching
// new high-water marks long after the pipelines fill: 520 allocations per
// 100 steps after 2 ms, 11 after 5 ms, 1 after 10 ms.
func TestZeroAllocDeepResponder(t *testing.T) {
	spec := topology.FatTreeSpec{Leaves: 3, HostsPerLeaf: 3, Spines: 2}
	c, err := topology.FatTree(model.HWTestbed(), spec, 1)
	if err != nil {
		t.Fatal(err)
	}
	h := spec.NumHosts()
	for r := 1; r < spec.Leaves; r++ {
		for i := 0; i < h; i++ {
			dst := (i + r*spec.HostsPerLeaf) % h
			bsg, err := traffic.NewBSG(c.NIC(i), c.NIC(dst), traffic.BSGConfig{Payload: 4096})
			if err != nil {
				t.Fatal(err)
			}
			bsg.Start(0)
		}
	}
	if allocs := measureSteadyState(t, c, units.Time(10*units.Millisecond), 20*units.Microsecond); allocs != 0 {
		t.Fatalf("all-to-all with deep responders: %.2f allocs per steady-state step, want 0", allocs)
	}
	deepest := 0
	for _, nic := range c.NICs {
		_, resp := nic.QueuedPackets()
		deepest = max(deepest, resp)
	}
	if deepest < 64 {
		t.Fatalf("deepest responder engine holds %d packets, want a deep queue (>= 64)", deepest)
	}
}

// TestBuildBudgetFatTree512 bounds what building the 512-host three-tier
// fat-tree on four shards allocates (the fattree512 fabric of the
// loadlatency sweep, rebuilt by every job). Each switch's forwarding table
// is one slice of 6 B entries sized at construction; a per-destination map
// in its place, for routes or for failover groups, costs several MB per
// build, and 12 B entries (int32 fields) 2.80 MB: both fail the bytes
// bound. Each switch port and each credit gate holds VL0's state inline
// and grows only when SetSL2VL installs a table that reaches a higher VL;
// an [ib.NumVLs] array back in the ports (5.10 MB), in BufferGate's
// receiver state (3.61 MB) or in the send windows (3.09 MB) fails the
// bytes bound (all of them together measured 4.81 MB before the forwarding
// entries shrank). Each switch ingress has one credit accounting: a
// BufferGate on a local link, the split gate's receiver half on a core
// link, whose ingress builds no BufferGate; an idle BufferGate on each of
// the 256 core-link ingresses (2.59 MB, 25,488 allocations) fails the
// allocation bound, as does the QP map each NIC once built and nothing
// read (24.7 KB and 512 allocations per build). Measured: 2.50 MB and
// 24,720 allocations per build; the allocation bound sits about 1% above
// that, the bytes bound 8%. The test logs both, so `make test-alloc`
// (-v) shows the headroom.
func TestBuildBudgetFatTree512(t *testing.T) {
	coreLink := model.LinkParams{Bandwidth: 56 * units.Gbps, Propagation: 100 * units.Nanosecond}
	spec := topology.FatTreeSpec{Tiers: 3, Pods: 8, Leaves: 8, HostsPerLeaf: 8, Spines: 4, CoreLink: &coreLink}
	build := func() {
		if _, err := topology.FatTree3(model.HWTestbed(), spec, 1, 4); err != nil {
			t.Fatal(err)
		}
	}
	const runs = 3
	const maxAllocs = 25_000
	// The race detector's sync.Pool drops items at random, so fmt's
	// printers are allocated anew there: about 0.33 MB more per build
	// (2.82-2.84 MB), and an allocation count that varies from run to run.
	maxBytes := uint64(2_700_000)
	if raceEnabled {
		maxBytes = 3_050_000
	}
	build() // warm-up: first-use allocations are not per build
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		build()
	}
	runtime.ReadMemStats(&after)
	// report fails the test only for a measurement over its budget.
	report := func(over bool) func(string, ...any) {
		if over {
			return t.Errorf
		}
		return t.Logf
	}
	bytes := (after.TotalAlloc - before.TotalAlloc) / runs
	report(bytes > maxBytes)("512-host build: %d bytes, budget %d", bytes, maxBytes)
	if raceEnabled {
		return
	}
	allocs := testing.AllocsPerRun(runs, build)
	report(allocs > maxAllocs)("512-host build: %.0f allocations, budget %d", allocs, maxAllocs)
}
