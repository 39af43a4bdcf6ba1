// Cross-shard links. A cross-shard wire is an ordinary Wire built with a
// channel (NewCrossWire): same serialization resource, same propagation
// delay, same fault handling, but its deliveries travel through the
// destination shard's mailbox (sim.Chan) instead of being scheduled on its
// own engine. What sets a cross-shard link apart is how credit comes back,
// not its wire and not its transmitter: CrossSendGate embeds the same
// sendWindow as BufferGate — the per-VL window, FIFO waiters, release hooks
// and the Gate methods — so a switch egress arbitrates over it exactly as
// over a local BufferGate. Only the receiver side differs: the receiving
// buffer's occupancy lives in CrossRecvGate on the receiving shard, which
// returns credit as explicit mailbox messages.
//
// The split gate is a plain credit window, not a frozen-occupancy BufferGate:
// across a cut with positive latency the sender cannot observe the receiver's
// standing occupancy within the lookahead, so the occupancy-targeting model
// is unimplementable there (and physically implausible — FC updates for a
// long cable are just credits). The topology layer therefore only ever puts
// cross-shard wires on three-tier core links, which no two-tier experiment
// traverses; and it routes core links through the mailbox at EVERY shard
// count, including 1, so the schedule is a function of the topology, never
// of the shard grouping.
package link

import (
	"repro/internal/ib"
	"repro/internal/sim"
	"repro/internal/units"
)

// IngressAccounting is the occupancy bookkeeping a receiving port drives:
// OnArrive when a packet has fully landed in the ingress buffer, OnDepart
// when it has left through an egress. Every switch ingress has exactly one:
// the BufferGate whose sendWindow the upstream transmitter reserves from on
// a local link, or the CrossRecvGate feeding the remote CrossSendGate on a
// cross-shard one.
type IngressAccounting interface {
	OnArrive(vl ib.VL, bytes units.ByteSize)
	OnDepart(vl ib.VL, bytes units.ByteSize)
}

// Interface conformance (compile-time).
var (
	_ Gate              = Unlimited{}
	_ Gate              = (*BufferGate)(nil)
	_ Gate              = (*CrossSendGate)(nil)
	_ IngressAccounting = (*BufferGate)(nil)
	_ IngressAccounting = (*CrossRecvGate)(nil)
	_ Provisioner       = (*BufferGate)(nil)
	_ Provisioner       = (*CrossSendGate)(nil)
	_ Provisioner       = (*CrossRecvGate)(nil)
)

// NewCrossWire builds a cross-shard wire toward peer: a Wire whose
// deliveries travel through ch. ch must be a channel from the sender's
// shard to the receiver's, with a latency floor no larger than prop (Send
// schedules the first bit at now+prop). gate is the sender-side credit
// window; the matching CrossRecvGate is built separately on the receiving
// shard (see NewCrossRecvGate).
func NewCrossWire(eng *sim.Engine, name string, bw units.Bandwidth, prop units.Duration, ch *sim.Chan, peer Endpoint, gate *CrossSendGate) *Wire {
	w := NewWire(eng, name, bw, prop, peer, gate)
	w.ch = ch
	return w
}

// CrossSendGate is the transmitter half of a split credit window: the
// shared sendWindow, refilled by credit messages from the remote
// CrossRecvGate. It lives on the sending shard and is the sim.Handler those
// mailbox-delivered credit messages dispatch to.
type CrossSendGate struct {
	sendWindow
	// eng/name are diagnostic only (invariant reports); see SetDiag.
	eng  *sim.Engine
	name string
}

// NewCrossSendGate builds the sender half provisioned for VL0, whose window
// windowFor gives; ProvisionVLs adds the VLs above it.
func NewCrossSendGate(windowFor func(ib.VL) units.ByteSize) *CrossSendGate {
	g := &CrossSendGate{}
	g.initVL0(windowFor(0))
	return g
}

// SetDiag attaches the sending shard's engine and the wire name for
// invariant reports. Purely diagnostic; a gate without it still checks its
// invariants, just with a less located message.
func (g *CrossSendGate) SetDiag(eng *sim.Engine, name string) { g.eng, g.name = eng, name }

// HandleEvent applies a mailbox-delivered credit return from the remote
// CrossRecvGate. Payload: A = VL, B = bytes. The conservation check runs
// before any waiter is granted: a grant would spend the excess credit and
// hide the violation.
func (g *CrossSendGate) HandleEvent(ev *sim.Event) {
	vl := ib.VL(ev.A)
	s := &g.send[vl]
	s.avail += units.ByteSize(ev.B)
	if s.avail > s.window {
		invariant(g.eng, g.name, "cross-shard credit conservation violated on vl %d: avail %v > window %v", vl, s.avail, s.window)
	}
	g.grant(vl)
}

// CrossRecvGate is the receiver half of a split credit window: it lives on
// the receiving shard, tracks buffer occupancy for the receiving port, and
// returns credits to the remote CrossSendGate as mailbox messages after the
// FC-update delay. Credit returns are eager (no same-tick coalescing): the
// coalescing optimization would key on engine ticks, which is exactly the
// kind of local-schedule dependence the cross path must not have.
type CrossRecvGate struct {
	eng         *sim.Engine // the RECEIVING shard's engine
	ch          *sim.Chan   // back-channel toward the sending shard
	send        *CrossSendGate
	returnDelay units.Duration // wire propagation + FC update latency
	// resident holds the provisioned VLs' occupancy: resident0's storage
	// until ProvisionVLs grows it.
	resident  []units.ByteSize
	resident0 [1]units.ByteSize
	name      string // diagnostic (invariant reports); see SetName
}

// NewCrossRecvGate builds the receiver half, provisioned for VL0. ch must
// be a channel from the receiver's shard back to the sender's; returnDelay
// (≥ the channel's latency floor) covers the return propagation plus the
// FC-update cost.
func NewCrossRecvGate(eng *sim.Engine, ch *sim.Chan, send *CrossSendGate, returnDelay units.Duration) *CrossRecvGate {
	g := &CrossRecvGate{eng: eng, ch: ch, send: send, returnDelay: returnDelay}
	g.resident = g.resident0[:]
	return g
}

// ProvisionVLs implements Provisioner. The windows live in the sender
// half, which its own switch port provisions.
func (g *CrossRecvGate) ProvisionVLs(n int, _ func(ib.VL) units.ByteSize) {
	if n <= len(g.resident) {
		return
	}
	g.resident = append(g.resident, make([]units.ByteSize, n-len(g.resident))...)
}

// OnArrive implements IngressAccounting.
func (g *CrossRecvGate) OnArrive(vl ib.VL, bytes units.ByteSize) {
	g.resident[vl] += bytes
}

// SetName names the gate for invariant reports. Purely diagnostic.
func (g *CrossRecvGate) SetName(name string) { g.name = name }

// OnDepart implements IngressAccounting: the departed bytes become a credit
// message due at the remote gate after the FC-update delay.
func (g *CrossRecvGate) OnDepart(vl ib.VL, bytes units.ByteSize) {
	if g.resident[vl] < bytes {
		invariant(g.eng, g.name, "cross-shard departure of %v exceeds resident %v on vl %d", bytes, g.resident[vl], vl)
	}
	g.resident[vl] -= bytes
	m := g.ch.Send(g.eng.Now().Add(g.returnDelay), "xwire:credit", g.send)
	m.A, m.B = int64(vl), int64(bytes)
}

// Occupancy reports the bytes currently resident in the VL's buffer: none
// on a VL that is not provisioned.
func (g *CrossRecvGate) Occupancy(vl ib.VL) units.ByteSize {
	if int(vl) >= len(g.resident) {
		return 0
	}
	return g.resident[vl]
}
