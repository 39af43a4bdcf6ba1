// Package ibswitch models the input-buffered InfiniBand switch at the
// center of the paper's testbed (Mellanox SX6012) and of its OMNeT++
// simulator — both are the same model under different parameter profiles
// (see package model).
//
// Architecture (paper §VIII-B): each input port has dedicated per-VL
// buffering guarded by credit flow control; an arbiter at each egress port
// selects among the input-port queue heads. Forwarding is cut-through: a
// packet may begin leaving BaseLatency after its first bit arrived. The
// scheduling policy is pluggable — FCFS (what the paper concludes the real
// switch implements), Round-Robin, and IB VL arbitration (weighted
// high/low-priority tables) for the QoS experiments.
package ibswitch

import (
	"fmt"
	"math/bits"

	"repro/internal/ib"
	"repro/internal/link"
	"repro/internal/model"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/units"
)

// Policy selects the packet scheduling discipline at egress ports.
type Policy int

// Scheduling policies.
const (
	// FCFS serves the packet that arrived at the switch earliest — the
	// policy the paper infers the SX6012 implements (§VIII-B).
	FCFS Policy = iota
	// RR round-robins over input ports.
	RR
	// VLArb applies the IB VL arbitration tables (high-priority table
	// first, deficit-weighted), with FCFS among ports inside a VL. Used
	// by the QoS experiments (§VIII-C).
	VLArb
	// SPF (shortest packet first) is an extension beyond the paper: it
	// approximates the "fair" policy the paper sketches in §VIII-B — time
	// spent in the switch proportional to flow size — by serving the
	// smallest eligible packet, breaking ties FCFS. The extension
	// experiments show it protects small-message flows without QoS
	// configuration, but inherits RR's multi-hop failure and adds a
	// starvation risk for bulk flows under small-packet floods.
	SPF
)

func (p Policy) String() string {
	switch p {
	case FCFS:
		return "FCFS"
	case RR:
		return "RR"
	case VLArb:
		return "VLArb"
	case SPF:
		return "SPF"
	default:
		return fmt.Sprintf("Policy(%d)", int(p))
	}
}

// queuedPacket is one entry in an input-port VL queue.
type queuedPacket struct {
	pkt     *ib.Packet
	arrival units.Time // first bit at ingress: the FCFS key
	ready   units.Time // arrival + base latency + jitter: cut-through gate
	size    units.ByteSize
	outPort int
}

// vlQueue is a growable FIFO ring of queued packets. The seed stored plain
// slices popped with q[1:], which walks the backing array forward and forces
// a reallocation on a later append — an amortized heap allocation per
// forwarded packet. The ring reuses its storage indefinitely: once grown to
// the steady-state depth it never allocates again. Capacity is always a
// power of two (grow doubles from 8), so index wrapping is a mask, not a
// division.
type vlQueue struct {
	buf  []queuedPacket
	head int
	n    int
}

func (q *vlQueue) len() int { return q.n }

// front returns the queue head. The pointer is valid until the next push or
// pop.
func (q *vlQueue) front() *queuedPacket { return &q.buf[q.head] }

// at returns entry i in FIFO order (diagnostics).
func (q *vlQueue) at(i int) *queuedPacket { return &q.buf[(q.head+i)&(len(q.buf)-1)] }

func (q *vlQueue) push(p queuedPacket) {
	if q.n == len(q.buf) {
		q.grow()
	}
	q.buf[(q.head+q.n)&(len(q.buf)-1)] = p
	q.n++
}

func (q *vlQueue) pop() {
	q.buf[q.head] = queuedPacket{} // drop the packet reference
	q.head = (q.head + 1) & (len(q.buf) - 1)
	q.n--
}

func (q *vlQueue) grow() {
	nb := make([]queuedPacket, max(8, 2*len(q.buf)))
	for i := 0; i < q.n; i++ {
		nb[i] = q.buf[(q.head+i)&(len(q.buf)-1)]
	}
	q.buf, q.head = nb, 0
}

// Port is one switch port: an ingress side (buffers + credit gate) and an
// egress side (arbiter state + wire to the attached device).
type Port struct {
	sw  *Switch
	idx int

	// Ingress.
	gate *link.BufferGate
	// xacct, when non-nil, replaces the port's own BufferGate as the
	// occupancy bookkeeping the ingress drives on arrival and departure —
	// the receiver half of a cross-shard credit gate (SetIngressCross).
	// Nil on every local port, so the common path keeps its direct
	// devirtualized BufferGate calls and pays one predictable branch.
	xacct  link.IngressAccounting
	queues [ib.NumVLs]vlQueue
	qbytes [ib.NumVLs]units.ByteSize
	// vlMask has bit v set iff queues[v] is non-empty — the queue-head
	// metadata the egress arbiters iterate instead of probing all NumVLs
	// rings of every input port on every pick.
	vlMask  uint16
	departH departHandler

	// Egress. wire is the attached transmitter, local or cross-shard.
	// egate caches its downstream credit gate, resolved once at attach
	// time — pick runs per packet and must not pay a Gate() call per
	// candidate. (egate lives at the struct tail, below.)
	wire         *link.Wire
	egressFreeAt units.Time
	scheduled    *sim.Event // the single pending pick, if any
	// backlog counts packets queued anywhere in the switch whose route
	// leads out this port. When a transmit leaves it at zero there is
	// nothing for the follow-up pick to find, so transmit skips re-arming
	// the egress; the next arrival's kick re-arms it at the same clamped
	// time the skipped pick would have produced.
	backlog int
	rrNext  int
	arb     vlarbState
	// elig is the arbiter's candidate scratch, reused across picks so
	// steady-state arbitration performs no growing appends.
	elig []candidate

	// Downstream credit gate of the egress (see the wire comment above).
	egate link.Gate
}

// HandleEvent runs the pending egress evaluation (the typed form of the old
// per-wake closure; see Switch.wake).
func (p *Port) HandleEvent(*sim.Event) {
	p.scheduled = nil
	p.sw.pick(p)
}

// departHandler applies a scheduled ingress-buffer departure. Payload:
// A = VL, B = bytes.
type departHandler struct{ p *Port }

func (d *departHandler) HandleEvent(ev *sim.Event) {
	if d.p.xacct != nil {
		d.p.xacct.OnDepart(ib.VL(ev.A), units.ByteSize(ev.B))
		return
	}
	d.p.gate.OnDepart(ib.VL(ev.A), units.ByteSize(ev.B))
}

type vlarbState struct {
	tokens [ib.NumVLs]int64
	inited bool
}

// Switch is the device model.
type Switch struct {
	eng    *sim.Engine
	par    model.SwitchParams
	jitter *rng.Source
	sl2vl  ib.SL2VL
	policy Policy
	vlarb  ib.VLArbConfig
	// listed[vl] records whether vl appears in either arbitration table;
	// derived in SetVLArb so the per-packet arbiter never rescans the
	// tables.
	listed [ib.NumVLs]bool
	ports  []*Port
	routes map[ib.NodeID]int
	limits [ib.NumVLs]*tokenBucket
	name   string

	// Failover state (fault runs only; zero cost otherwise — deliver and
	// pick guard on downCount > 0 / portDown non-nil). portDown marks
	// egress ports that must not start new transmissions; uplinks maps a
	// destination to the port group destination-modulo routing may fall
	// over to while its primary is down (the topology registers shared
	// slices, one per routing group). downCount counts true entries.
	portDown  []bool
	downCount int
	uplinks   map[ib.NodeID][]int
	// FailedOver counts packets whose egress was redirected off a downed
	// primary (tests and diagnostics).
	FailedOver uint64

	// ForwardedPackets counts data/ack packets forwarded, for tests.
	ForwardedPackets uint64
	// OnForward, when set, observes every forwarded packet with its
	// ingress arrival and egress start times (diagnostics).
	OnForward func(pkt *ib.Packet, arrival, egressStart units.Time)

	// EagerWakes disables pick-wake coalescing, restoring the historical
	// behavior of scheduling every egress evaluation at the request time
	// even when the egress is known to be busy (each such pick runs as a
	// no-op and re-arms itself at egressFreeAt). Test-only: the wake
	// invariants tests prove the coalesced scheduler forwards the same
	// packets at the same times.
	EagerWakes bool
}

// New builds a switch with n ports. The jitter source must be dedicated to
// this switch for reproducibility.
func New(eng *sim.Engine, name string, par model.SwitchParams, nPorts int, jitter *rng.Source) *Switch {
	sw := &Switch{
		eng:    eng,
		par:    par,
		jitter: jitter,
		sl2vl:  ib.DefaultSL2VL(),
		policy: FCFS,
		vlarb:  ib.SingleVLArb(),
		routes: make(map[ib.NodeID]int),
		name:   name,
	}
	sw.listed = listedVLs(sw.vlarb)
	for i := 0; i < nPorts; i++ {
		p := &Port{sw: sw, idx: i}
		p.departH.p = p
		p.gate = link.NewBufferGate(eng, par.CreditReturnDelay, par.WindowFor)
		p.gate.SetName(fmt.Sprintf("%s.p%d:in", name, i))
		sw.ports = append(sw.ports, p)
	}
	return sw
}

// Name returns the switch's diagnostic name.
func (sw *Switch) Name() string { return sw.name }

// Port returns port i.
func (sw *Switch) Port(i int) *Port { return sw.ports[i] }

// NumPorts returns the port count.
func (sw *Switch) NumPorts() int { return len(sw.ports) }

// SetPolicy selects the egress scheduling policy.
func (sw *Switch) SetPolicy(p Policy) { sw.policy = p }

// SetSL2VL installs the SL-to-VL mapping table.
func (sw *Switch) SetSL2VL(t ib.SL2VL) { sw.sl2vl = t }

// SetVLArb installs the VL arbitration tables (used when the policy is
// VLArb).
func (sw *Switch) SetVLArb(cfg ib.VLArbConfig) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	sw.vlarb = cfg
	sw.listed = listedVLs(cfg)
	return nil
}

// listedVLs marks the VLs appearing in either arbitration table.
func listedVLs(cfg ib.VLArbConfig) (listed [ib.NumVLs]bool) {
	for _, e := range cfg.High {
		listed[e.VL] = true
	}
	for _, e := range cfg.Low {
		listed[e.VL] = true
	}
	return listed
}

// SetUplinks declares the failover group for dest: the egress ports over
// which destination-modulo routing may rebalance while dest's primary port
// is down. The topology layer registers one shared slice per routing group
// (per-destination map entries alias it), in construction order, so the
// grouping is identical at every shard count.
func (sw *Switch) SetUplinks(dest ib.NodeID, group []int) {
	if sw.uplinks == nil {
		sw.uplinks = make(map[ib.NodeID][]int)
	}
	sw.uplinks[dest] = group
}

// SetPortDown marks port i down (no new transmissions start; packets
// already queued for it wait for the heal) or back up (the egress re-arms
// and drains). Transitions are scheduled by the fault controller; calling
// with the current state is a no-op.
func (sw *Switch) SetPortDown(i int, down bool) {
	if sw.portDown == nil {
		sw.portDown = make([]bool, len(sw.ports))
	}
	if sw.portDown[i] == down {
		return
	}
	sw.portDown[i] = down
	if down {
		sw.downCount++
		return
	}
	sw.downCount--
	sw.kick(sw.ports[i])
}

// failover redirects a packet for dest off its downed primary port: the
// surviving ports of the destination's group are counted and the
// dest-modulo-survivors one is chosen, so the spread stays deterministic
// and allocation-free. With no registered group or no survivor the primary
// is kept — the packet queues and waits for the heal.
func (sw *Switch) failover(dest ib.NodeID, primary int) int {
	group := sw.uplinks[dest]
	alive := 0
	for _, p := range group {
		if !sw.portDown[p] {
			alive++
		}
	}
	if alive == 0 {
		return primary
	}
	k := int(dest) % alive
	for _, p := range group {
		if sw.portDown[p] {
			continue
		}
		if k == 0 {
			sw.FailedOver++
			return p
		}
		k--
	}
	return primary
}

// SetRoute directs traffic for node via port.
func (sw *Switch) SetRoute(node ib.NodeID, port int) {
	if port < 0 || port >= len(sw.ports) {
		panic(fmt.Sprintf("ibswitch %s: route to invalid port %d", sw.name, port))
	}
	sw.routes[node] = port
}

// AttachPeer wires port i's egress to a peer endpoint on this switch's
// engine whose ingress credits are controlled by peerGate (nil for an
// RNIC, which never back-pressures).
func (sw *Switch) AttachPeer(i int, linkPar model.LinkParams, peer link.Endpoint, peerGate link.Gate) {
	sw.AttachWire(i, link.NewWire(sw.eng, fmt.Sprintf("%s.p%d", sw.name, i), linkPar.Bandwidth, linkPar.Propagation, peer, peerGate))
}

// AttachWire makes w port i's egress wire: a local one, or a cross-shard
// one toward a device on another shard. Whenever the wire's gate releases
// credit — a local BufferGate's return, or a CrossSendGate's mailbox
// credit — the egress re-arms.
func (sw *Switch) AttachWire(i int, w *link.Wire) {
	p := sw.ports[i]
	p.wire = w
	p.egate = w.Gate()
	p.egate.OnRelease(func() { sw.kick(p) })
}

// SetIngressCross replaces port i's ingress accounting with the receiver
// half of a cross-shard credit gate: the upstream transmitter reserves from
// the remote CrossSendGate, and this port's arrivals/departures drive the
// credit returns. The port's local BufferGate is left idle.
func (sw *Switch) SetIngressCross(i int, g link.IngressAccounting) {
	sw.ports[i].xacct = g
}

// IngressGate exposes port i's ingress credit gate (the upstream
// transmitter reserves from it).
func (sw *Switch) IngressGate(i int) *link.BufferGate { return sw.ports[i].gate }

// EgressWire returns port i's egress wire (nil when unattached). The
// topology layer registers it with the fault controller.
func (sw *Switch) EgressWire(i int) *link.Wire { return sw.ports[i].wire }

// Ingress returns the link.Endpoint for packets arriving at port i.
func (sw *Switch) Ingress(i int) link.Endpoint { return ingress{sw.ports[i]} }

// ingress adapts a port to link.Endpoint.
type ingress struct{ p *Port }

func (in ingress) DeliverArrival(pkt *ib.Packet, arriveStart, arriveEnd units.Time) {
	in.p.deliver(pkt, arriveStart, arriveEnd)
}

func (p *Port) deliver(pkt *ib.Packet, arriveStart, arriveEnd units.Time) {
	ib.AssertLive(pkt)
	sw := p.sw
	out, ok := sw.routes[pkt.DestNode]
	if !ok {
		panic(fmt.Sprintf("ibswitch %s: no route for node %d", sw.name, pkt.DestNode))
	}
	if sw.downCount > 0 && sw.portDown[out] {
		out = sw.failover(pkt.DestNode, out)
	}
	vl := sw.sl2vl.Map(pkt.SL)
	pkt.VL = vl
	if p.xacct != nil {
		p.xacct.OnArrive(vl, pkt.WireSize())
	} else {
		p.gate.OnArrive(vl, pkt.WireSize())
	}
	ready := arriveStart.Add(sw.par.BaseLatency)
	if sw.par.JitterMean > 0 {
		ready = ready.Add(units.Duration(sw.jitter.Exp(float64(sw.par.JitterMean))))
	}
	p.queues[vl].push(queuedPacket{
		pkt:     pkt,
		arrival: arriveStart,
		ready:   ready,
		size:    pkt.WireSize(),
		outPort: out,
	})
	p.vlMask |= 1 << vl
	p.qbytes[vl] += pkt.WireSize()
	sw.ports[out].backlog++
	// The new packet cannot be served before its cut-through gate opens;
	// waking the egress sooner on its behalf would only observe an unready
	// head and re-arm itself at exactly this time. Earlier candidates keep
	// their earlier pending wake (wake takes the minimum).
	at := sw.eng.Now()
	if ready > at && !sw.EagerWakes {
		at = ready
	}
	sw.wake(sw.ports[out], at)
}

// kick schedules an immediate egress evaluation for out.
func (sw *Switch) kick(out *Port) {
	sw.wake(out, sw.eng.Now())
}

// arbBacklogThreshold is the standing-backlog size (two full 4 KB frames)
// above which an input port counts toward the egress rearbitration
// overhead's active-input term.
const arbBacklogThreshold = 2 * (4096 + ib.MaxHeaderBytes)

// tokenBucket enforces a per-VL egress rate limit (extension: the
// mitigation the paper mentions in §VIII-C — "limiting the bandwidth for
// each SL/VL mapping will prevent gaming" — but could not configure on its
// switch). Tokens are bytes; they refill at rate and cap at burst.
type tokenBucket struct {
	rate   units.Bandwidth
	burst  units.ByteSize
	tokens float64
	last   units.Time
}

func (b *tokenBucket) refill(now units.Time) {
	if now <= b.last {
		return
	}
	b.tokens += float64(units.BytesIn(b.rate, now.Sub(b.last)))
	if max := float64(b.burst); b.tokens > max {
		b.tokens = max
	}
	b.last = now
}

// ready reports whether size bytes may pass now; if not, it returns when
// enough tokens will have accumulated.
func (b *tokenBucket) ready(now units.Time, size units.ByteSize) (bool, units.Time) {
	b.refill(now)
	if b.tokens >= float64(size) {
		return true, 0
	}
	deficit := float64(size) - b.tokens
	wait := units.Serialization(units.ByteSize(deficit)+1, b.rate)
	return false, now.Add(wait)
}

func (b *tokenBucket) consume(size units.ByteSize) { b.tokens -= float64(size) }

// SetVLRateLimit caps a VL's egress bandwidth fabric-wide on this switch.
// burst bounds how much the VL may send back-to-back after idling. A zero
// rate removes the limit.
func (sw *Switch) SetVLRateLimit(vl ib.VL, rate units.Bandwidth, burst units.ByteSize) {
	if rate <= 0 {
		sw.limits[vl] = nil
		return
	}
	if burst <= 0 {
		burst = 4096 + ib.MaxHeaderBytes
	}
	sw.limits[vl] = &tokenBucket{rate: rate, burst: burst, tokens: float64(burst)}
}

// candidate identifies a queue head eligible or soon-eligible for egress.
// qp points at the live queue head; it stays valid for the duration of a
// pick (arbitration only reads the queues) and is copied out by transmit
// before the winner is popped.
type candidate struct {
	inPort int
	vl     ib.VL
	qp     *queuedPacket
}

// pick runs the egress arbiter for out: request, then grant. Every ready
// head whose packet fits the downstream gate becomes a candidate without
// taking credit (Gate.Fits); the policy chooses one, and only that winner
// reserves. A head that does not fit is left for the gate's release hook,
// which re-kicks this egress. pick reuses out.elig as candidate scratch and
// walks each input port's non-empty-VL mask, so a steady-state arbitration
// touches no allocator.
func (sw *Switch) pick(out *Port) {
	now := sw.eng.Now()
	if out.wire == nil {
		return
	}
	if out.egressFreeAt > now {
		sw.wake(out, out.egressFreeAt)
		return
	}
	if sw.downCount > 0 && sw.portDown[out.idx] {
		// Downed egress: packets queued for it wait; the heal's
		// SetPortDown(false) re-kicks this port.
		return
	}

	eligible := out.elig[:0]
	nextReady := units.MaxTime
	activeInputs := 0
	// pending sums, per VL, the bytes of the heads already admitted, and a
	// head is admitted only if it fits on top of them. When the gate has
	// credit for fewer heads than are ready, the lowest-numbered inputs
	// therefore fill the candidate set and the later ones never compete,
	// whatever the policy: the multi-switch starvation of ROADMAP.md "Fair
	// arbitration when an egress is short of credit". Testing each head
	// alone, Fits(vl, head.size), is the fix; it moves the multi-switch
	// goldens, so it lands with their regeneration.
	var pending [ib.NumVLs]units.ByteSize
	for _, in := range sw.ports {
		inActive := false
		for mask := in.vlMask; mask != 0; mask &= mask - 1 {
			vl := bits.TrailingZeros16(mask)
			head := in.queues[vl].front()
			if head.outPort != out.idx {
				continue // head-of-line: rest of this FIFO is blocked
			}
			// The rearbitration overhead applies between inputs with
			// standing backlogs; a port holding less than two full frames
			// (e.g. the LSG's lone 64 B probe) does not slow the crossbar.
			if in.qbytes[vl] > arbBacklogThreshold {
				inActive = true
			}
			if head.ready > now {
				if head.ready < nextReady {
					nextReady = head.ready
				}
				continue
			}
			if lim := sw.limits[vl]; lim != nil {
				if ok, at := lim.ready(now, head.size); !ok {
					if at < nextReady {
						nextReady = at
					}
					continue
				}
			}
			if !out.egate.Fits(ib.VL(vl), pending[vl]+head.size) {
				continue
			}
			pending[vl] += head.size
			eligible = append(eligible, candidate{inPort: in.idx, vl: ib.VL(vl), qp: head})
		}
		if inActive {
			activeInputs++
		}
	}
	if len(eligible) == 0 {
		out.elig = eligible // keep grown capacity for the next pick
		if nextReady < units.MaxTime {
			sw.wake(out, nextReady)
		}
		return
	}

	chosen := sw.choose(out, eligible)
	// Nothing ran between the winner's fit and this grant, so it cannot
	// fail.
	if !out.egate.TryReserve(chosen.vl, chosen.qp.size) {
		panic(fmt.Sprintf("ibswitch %s: port %d: winner on vl %d lost its downstream credit between fit and grant", sw.name, out.idx, chosen.vl))
	}
	sw.transmit(out, chosen, activeInputs)
	// Park the scratch with its packet references dropped — a grown
	// candidate buffer on an idle port must not pin packets (same
	// discipline as vlQueue.pop and the engine queue slots).
	clear(eligible)
	out.elig = eligible[:0]
}

func (sw *Switch) choose(out *Port, eligible []candidate) candidate {
	switch sw.policy {
	case FCFS:
		return chooseFCFS(eligible)
	case RR:
		return chooseRR(out, eligible)
	case VLArb:
		return sw.chooseVLArb(out, eligible)
	case SPF:
		return chooseSPF(eligible)
	default:
		panic("ibswitch: unknown policy")
	}
}

// chooseSPF picks the smallest eligible packet, ties broken by age.
func chooseSPF(eligible []candidate) candidate {
	best := eligible[0]
	for _, c := range eligible[1:] {
		if c.qp.size < best.qp.size ||
			(c.qp.size == best.qp.size && c.qp.arrival < best.qp.arrival) {
			best = c
		}
	}
	return best
}

// chooseFCFS picks the oldest head by switch arrival time.
func chooseFCFS(eligible []candidate) candidate {
	best := eligible[0]
	for _, c := range eligible[1:] {
		if c.qp.arrival < best.qp.arrival ||
			(c.qp.arrival == best.qp.arrival && c.inPort < best.inPort) {
			best = c
		}
	}
	return best
}

// chooseRR scans input ports cyclically from the pointer, serving the
// lowest eligible VL of the first port that holds any candidate. The scan
// is over the eligible slice directly — small by construction — rather than
// a per-pick map of per-port slices.
func chooseRR(out *Port, eligible []candidate) candidate {
	n := len(out.sw.ports)
	for off := 0; off < n; off++ {
		idx := (out.rrNext + off) % n
		best := -1
		for i := range eligible {
			if eligible[i].inPort != idx {
				continue
			}
			if best < 0 || eligible[i].vl < eligible[best].vl {
				best = i
			}
		}
		if best >= 0 {
			out.rrNext = (idx + 1) % n
			return eligible[best]
		}
	}
	panic("ibswitch: RR found no candidate")
}

// chooseVLArb applies the deficit-weighted high/low tables: high-priority
// VLs are served whenever they hold both traffic and tokens; token budgets
// refill jointly when no backlogged VL has tokens left. Within a VL the
// oldest packet wins (FCFS).
//
// VLs absent from both tables get no tokens — under the IB spec's
// VLArbitrationTable every active data VL must appear in a table entry
// with non-zero weight, so traffic on an unlisted VL is a configuration
// error the arbiter owes no service. A lossless model cannot drop or stall it forever
// without deadlocking its own credit loop, so the spec-faithful compromise
// is strict background priority: an unlisted VL is served only when no
// listed VL has an eligible packet. Before this rule, an unlisted VL's
// permanently-empty token budget made the replenish loop run dry and the
// FCFS safety valve served it at full priority — ahead of listed VLs whose
// deficit was merely overdrawn.
func (sw *Switch) chooseVLArb(out *Port, eligible []candidate) candidate {
	st := &out.arb
	if !st.inited {
		st.inited = true
		sw.replenish(st)
	}
	anyListed := false
	for i := range eligible {
		if sw.listed[eligible[i].vl] {
			anyListed = true
			break
		}
	}
	if !anyListed {
		// Only unconfigured VLs hold traffic: drain them FCFS rather than
		// deadlock (background priority, no token accounting).
		return chooseFCFS(eligible)
	}
	// Table entries name listed VLs only, so scanning eligible by the
	// entry's VL visits exactly the configured candidates — no filtered
	// copy, no per-pick VL map.
	for iter := 0; iter < 64; iter++ {
		for _, e := range sw.vlarb.High {
			if st.tokens[e.VL] <= 0 {
				continue
			}
			if i := oldestOfVL(eligible, e.VL); i >= 0 {
				st.tokens[e.VL] -= int64(eligible[i].qp.size)
				return eligible[i]
			}
		}
		for _, e := range sw.vlarb.Low {
			if st.tokens[e.VL] <= 0 {
				continue
			}
			if i := oldestOfVL(eligible, e.VL); i >= 0 {
				st.tokens[e.VL] -= int64(eligible[i].qp.size)
				return eligible[i]
			}
		}
		sw.replenish(st)
	}
	// Token weights are tiny relative to a packet; serve the listed VLs
	// FCFS as a safety valve rather than livelock.
	return chooseFCFSListed(eligible, &sw.listed)
}

// oldestOfVL returns the index of the oldest candidate on vl, or -1 when
// the VL holds no candidate. Ties keep the earlier index, matching FCFS.
func oldestOfVL(eligible []candidate, vl ib.VL) int {
	best := -1
	for i := range eligible {
		if eligible[i].vl != vl {
			continue
		}
		if best < 0 || eligible[i].qp.arrival < eligible[best].qp.arrival {
			best = i
		}
	}
	return best
}

// chooseFCFSListed is chooseFCFS restricted to VLs marked in listed.
func chooseFCFSListed(eligible []candidate, listed *[ib.NumVLs]bool) candidate {
	best := -1
	for i := range eligible {
		if !listed[eligible[i].vl] {
			continue
		}
		if best < 0 ||
			eligible[i].qp.arrival < eligible[best].qp.arrival ||
			(eligible[i].qp.arrival == eligible[best].qp.arrival && eligible[i].inPort < eligible[best].inPort) {
			best = i
		}
	}
	return eligible[best]
}

// replenish adds one round of weight to every configured VL, capping the
// accumulated budget at one round's worth (classic DRR).
func (sw *Switch) replenish(st *vlarbState) {
	add := func(e ib.VLArbEntry) {
		st.tokens[e.VL] += e.Weight
		if st.tokens[e.VL] > e.Weight {
			st.tokens[e.VL] = e.Weight
		}
	}
	for _, e := range sw.vlarb.High {
		add(e)
	}
	for _, e := range sw.vlarb.Low {
		add(e)
	}
}

// transmit dequeues the chosen packet and puts it on the egress wire.
func (sw *Switch) transmit(out *Port, c candidate, activeInputs int) {
	now := sw.eng.Now()
	in := sw.ports[c.inPort]
	q := &in.queues[c.vl]
	if q.len() == 0 || q.front().pkt != c.qp.pkt {
		panic("ibswitch: queue head changed during arbitration")
	}
	qp := *c.qp // copy out: pop clears the slot the candidate points into
	q.pop()
	in.qbytes[c.vl] -= qp.size
	if q.len() == 0 {
		in.vlMask &^= 1 << c.vl
	} else if next := q.front().outPort; next != out.idx {
		// Dequeuing may expose a head bound for a different egress port;
		// that port must re-arbitrate or a rare flow behind a busy one
		// would starve (classic input-queued switch bookkeeping).
		sw.kick(sw.ports[next])
	}

	if lim := sw.limits[c.vl]; lim != nil {
		lim.refill(now)
		lim.consume(qp.size)
	}
	if sw.OnForward != nil {
		sw.OnForward(qp.pkt, qp.arrival, now)
	}
	end := out.wire.Send(qp.pkt)
	ser := end.Sub(now) // Wire.Send returns injection end (pre-propagation)
	// Egress rearbitration overhead: the empirical quadratic fit described
	// in model.SwitchParams. It extends the egress busy period but not the
	// packet's own delivery time.
	overhead := sw.arbOverhead(qp.size, activeInputs)
	out.egressFreeAt = now.Add(ser + overhead)
	sw.ForwardedPackets++

	// The packet leaves the input buffer when its last bit leaves the
	// egress (cut-through: ingress and egress drain together). Typed event:
	// one departure per forwarded packet.
	ev := sw.eng.AtEvent(now.Add(ser), "switch:depart", &in.departH)
	ev.A, ev.B = int64(c.vl), int64(qp.size)
	out.backlog--
	if out.backlog > 0 || sw.EagerWakes {
		sw.wake(out, out.egressFreeAt)
	}
}

func (sw *Switch) arbOverhead(size units.ByteSize, activeInputs int) units.Duration {
	if sw.par.ArbOverheadMax <= 0 || activeInputs <= 1 {
		return 0
	}
	frac := 1 - 1/float64(activeInputs)
	r := float64(size) / float64(sw.par.ArbRefBytes)
	return units.Duration(float64(sw.par.ArbOverheadMax) * frac * r * r)
}

// wake ensures pick runs for out no later than at, keeping a single
// pending evaluation per egress port — rescheduled in place, never
// stacked. Pulling the pending pick earlier is the switch's hottest
// scheduling operation, so it reuses the queued event (an O(1) wheel
// move, no allocation) instead of cancel-and-reschedule.
//
// Wake coalescing: a pick cannot transmit before the egress wire frees,
// so a request earlier than egressFreeAt is clamped up to it. Without the
// clamp every packet arriving while the egress is busy pulls the pending
// pick to "now", where it runs as a no-op and re-arms itself at
// egressFreeAt — one wasted event execution per arrival under load. The
// clamp cannot change any arbitration outcome: the evaluations it elides
// are exactly those that observe a busy egress and return (locked by the
// wake-equivalence invariants tests and the experiment goldens).
func (sw *Switch) wake(out *Port, at units.Time) {
	if at < out.egressFreeAt && !sw.EagerWakes {
		at = out.egressFreeAt
	}
	if out.scheduled != nil {
		if out.scheduled.Time() <= at {
			return
		}
		sw.eng.Reschedule(out.scheduled, at)
		return
	}
	out.scheduled = sw.eng.AtEvent(at, "switch:pick", out)
}

// QueuedBytes reports the total bytes buffered at input port i for vl
// (diagnostics and tests).
func (sw *Switch) QueuedBytes(i int, vl ib.VL) units.ByteSize {
	var total units.ByteSize
	q := &sw.ports[i].queues[vl]
	for j := 0; j < q.len(); j++ {
		total += q.at(j).size
	}
	return total
}
