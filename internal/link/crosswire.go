// Cross-shard links. A cross-shard wire is an ordinary Wire built with a
// channel (NewCrossWire): same serialization resource, same propagation
// delay, same fault handling, but its deliveries travel through the
// destination shard's mailbox (sim.Chan) instead of being scheduled on its
// own engine. What sets a cross-shard link apart is its gate, not its
// wire: the receiving buffer's credit accounting is split into a
// sender-side window (CrossSendGate) fed by explicit credit messages from
// the receiver side (CrossRecvGate). CrossSendGate is a complete Gate —
// Fits, TryReserve, ReserveForWaiter and OnRelease — so a switch egress
// arbitrates over it exactly as over a local BufferGate: it tests each
// candidate with Fits, reserves for the winner only, and re-arms from the
// release hook when a credit message lands.
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
// when it has left through an egress. BufferGate implements both sides in
// one object; a cross-shard ingress implements them on CrossRecvGate with
// the window held by the remote CrossSendGate.
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

// xvlSend is the sender-side credit state of one VL of a cross-shard link.
type xvlSend struct {
	window  units.ByteSize
	avail   units.ByteSize
	waiters []waiter
}

// CrossSendGate is the transmitter half of a split credit window: a plain
// per-VL window decremented by reservations and refilled by credit messages
// from the remote CrossRecvGate. It lives on the sending shard and is the
// sim.Handler those mailbox-delivered credit messages dispatch to.
type CrossSendGate struct {
	vls       [ib.NumVLs]xvlSend
	onRelease []func()
	// eng/name are diagnostic only (invariant reports); see SetDiag.
	eng  *sim.Engine
	name string
}

// NewCrossSendGate builds the sender half with VL windows from windowFor.
func NewCrossSendGate(windowFor func(ib.VL) units.ByteSize) *CrossSendGate {
	g := &CrossSendGate{}
	for i := range g.vls {
		w := windowFor(ib.VL(i))
		g.vls[i].window = w
		g.vls[i].avail = w
	}
	return g
}

// take consumes bytes of credit; grant-side bookkeeping only (the low-water
// tracking BufferGate does feeds its occupancy model, which has no sender-
// side counterpart here).
func (s *xvlSend) take(bytes units.ByteSize) { s.avail -= bytes }

// grantWaiters serves queued reservations FIFO while credit suffices.
func (s *xvlSend) grantWaiters() {
	for len(s.waiters) > 0 {
		wt := s.waiters[0]
		if s.avail < wt.bytes {
			break
		}
		s.take(wt.bytes)
		n := copy(s.waiters, s.waiters[1:])
		s.waiters[n] = waiter{}
		s.waiters = s.waiters[:n]
		wt.w.CreditGranted()
	}
}

// Fits implements Gate.
func (g *CrossSendGate) Fits(vl ib.VL, bytes units.ByteSize) bool {
	s := &g.vls[vl]
	return len(s.waiters) == 0 && s.avail >= bytes
}

// TryReserve implements Gate.
func (g *CrossSendGate) TryReserve(vl ib.VL, bytes units.ByteSize) bool {
	if !g.Fits(vl, bytes) {
		return false
	}
	g.vls[vl].take(bytes)
	return true
}

// ReserveForWaiter implements Gate.
func (g *CrossSendGate) ReserveForWaiter(vl ib.VL, bytes units.ByteSize, w Waiter) {
	if g.TryReserve(vl, bytes) {
		w.CreditGranted()
		return
	}
	s := &g.vls[vl]
	s.waiters = append(s.waiters, waiter{bytes: bytes, w: w})
}

// SetDiag attaches the sending shard's engine and the wire name for
// invariant reports. Purely diagnostic; a gate without it still checks its
// invariants, just with a less located message.
func (g *CrossSendGate) SetDiag(eng *sim.Engine, name string) { g.eng, g.name = eng, name }

// OnRelease implements Gate: hooks fire whenever a mailbox credit message
// lands.
func (g *CrossSendGate) OnRelease(fn func()) { g.onRelease = append(g.onRelease, fn) }

// Available reports the sender-visible credits for a VL.
func (g *CrossSendGate) Available(vl ib.VL) units.ByteSize { return g.vls[vl].avail }

// Window reports the VL's configured window.
func (g *CrossSendGate) Window(vl ib.VL) units.ByteSize { return g.vls[vl].window }

// HandleEvent applies a mailbox-delivered credit return from the remote
// CrossRecvGate. Payload: A = VL, B = bytes.
func (g *CrossSendGate) HandleEvent(ev *sim.Event) {
	s := &g.vls[ib.VL(ev.A)]
	s.avail += units.ByteSize(ev.B)
	if s.avail > s.window {
		invariant(g.eng, g.name, "cross-shard credit conservation violated on vl %d: avail %v > window %v", ev.A, s.avail, s.window)
	}
	s.grantWaiters()
	for _, hook := range g.onRelease {
		hook()
	}
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
	resident    [ib.NumVLs]units.ByteSize
	name        string // diagnostic (invariant reports); see SetName
}

// NewCrossRecvGate builds the receiver half. ch must be a channel from the
// receiver's shard back to the sender's; returnDelay (≥ the channel's
// latency floor) covers the return propagation plus the FC-update cost.
func NewCrossRecvGate(eng *sim.Engine, ch *sim.Chan, send *CrossSendGate, returnDelay units.Duration) *CrossRecvGate {
	return &CrossRecvGate{eng: eng, ch: ch, send: send, returnDelay: returnDelay}
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

// Occupancy reports the bytes currently resident in the VL's buffer.
func (g *CrossRecvGate) Occupancy(vl ib.VL) units.ByteSize { return g.resident[vl] }
