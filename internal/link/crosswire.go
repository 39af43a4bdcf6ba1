// Cross-shard links. A cross-shard wire is an ordinary Wire built with a
// channel (NewCrossWire): same serialization resource, same propagation
// delay, same fault handling, but its deliveries travel through the
// destination shard's mailbox (sim.Chan) instead of being scheduled on its
// own engine. What sets a cross-shard link apart is its gate, not its
// wire: the receiving buffer's credit accounting is split into a
// sender-side window (CrossSendGate) fed by explicit credit messages from
// the receiver side (CrossRecvGate).
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

// Unreserver is a Gate that can take back a tentative reservation (an
// arbitration candidate that lost). See BufferGate.Unreserve for the
// hook-skipping contract all implementations share.
type Unreserver interface {
	Unreserve(vl ib.VL, bytes units.ByteSize)
}

// ReleaseNotifier is a Gate that can notify a blocked transmitter that
// credits were released; switch egress schedulers re-arm through it.
type ReleaseNotifier interface {
	OnRelease(fn func())
}

// Interface conformance of the local fast path (compile-time).
var (
	_ IngressAccounting = (*BufferGate)(nil)
	_ Unreserver        = (*BufferGate)(nil)
	_ ReleaseNotifier   = (*BufferGate)(nil)
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
	// hadWaiters: same always-on Unreserve witness as vlState.hadWaiters.
	hadWaiters bool
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

// TryReserve implements Gate.
func (g *CrossSendGate) TryReserve(vl ib.VL, bytes units.ByteSize) bool {
	s := &g.vls[vl]
	if len(s.waiters) > 0 || s.avail < bytes {
		return false
	}
	s.take(bytes)
	return true
}

// ReserveForWaiter implements Gate.
func (g *CrossSendGate) ReserveForWaiter(vl ib.VL, bytes units.ByteSize, w Waiter) {
	s := &g.vls[vl]
	if len(s.waiters) == 0 && s.avail >= bytes {
		s.take(bytes)
		w.CreditGranted()
		return
	}
	s.hadWaiters = true
	s.waiters = append(s.waiters, waiter{bytes: bytes, w: w})
}

// Unreserve returns a losing arbitration candidate's reservation. Hooks are
// deliberately not fired, under the same single-reserver contract as
// BufferGate.Unreserve (each cross gate guards one wire fed by one egress
// port), with the same hadWaiters witness.
func (g *CrossSendGate) Unreserve(vl ib.VL, bytes units.ByteSize) {
	s := &g.vls[vl]
	if s.hadWaiters {
		invariant(g.eng, g.name, "Unreserve(vl=%d) on a cross-shard VL that has queued waiters — hook-skipping is only safe under single-reserver wiring (see BufferGate.Unreserve doc)", vl)
	}
	s.avail += bytes
	if s.avail > s.window {
		invariant(g.eng, g.name, "cross-shard unreserve exceeds reserved bytes on vl %d: avail %v > window %v", vl, s.avail, s.window)
	}
	s.grantWaiters()
}

// SetDiag attaches the sending shard's engine and the wire name for
// invariant reports. Purely diagnostic; a gate without it still checks its
// invariants, just with a less located message.
func (g *CrossSendGate) SetDiag(eng *sim.Engine, name string) { g.eng, g.name = eng, name }

// OnRelease registers a hook invoked whenever credits return; the sending
// switch's egress scheduler re-arms through it.
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
