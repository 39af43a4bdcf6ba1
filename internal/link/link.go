// Package link models InfiniBand cables and their hop-by-hop, per-virtual-
// lane credit-based flow control (paper §II-D). A link direction ("wire")
// serializes packets at the port rate and delivers them after a propagation
// delay; the receiving buffer's CreditGate decides when the transmitter may
// inject.
//
// # Frozen-occupancy credit pacing
//
// The experiments in the paper hinge on how much data stands in a switch
// input buffer when a rate-limited sender (offered rate ro) is drained
// below its offered rate (drain rate rd): the LSG's queueing delay is the
// total standing occupancy divided by the drain rate. Four independent data
// points in the paper (Fig. 7a at 2/3/5 BSGs, Fig. 10 at 2/5 BSGs, and
// Fig. 12 "Shared SL") are all consistent with a standing occupancy of
//
//	O = W * (1 - rd/ro)
//
// per oversubscribed buffer of window W — not with a permanently full
// window, which naive credit accounting produces. Physically this is the
// occupancy at the moment the initial send burst exhausts its credit
// window (the buffer fills at ro and drains at rd while W bytes are
// outstanding), after which send opportunities are clocked one-for-one by
// credit returns and the occupancy freezes.
//
// BufferGate implements this behaviour explicitly and deterministically:
// it estimates the arrival and departure rates of each VL, computes the
// target standing occupancy, and escrows credit returns that would push
// the occupancy above target. When the buffer is not oversubscribed the
// gate releases credits immediately and is invisible. The hard window W is
// never exceeded, preserving losslessness.
package link

import (
	"repro/internal/ib"
	"repro/internal/sim"
	"repro/internal/units"
)

// Endpoint receives packets from a wire. arriveStart is when the first bit
// lands (used for cut-through forwarding decisions and FCFS arbitration);
// arriveEnd is when the last bit lands.
type Endpoint interface {
	DeliverArrival(pkt *ib.Packet, arriveStart, arriveEnd units.Time)
}

// Waiter is notified when a blocked reservation is granted. A transmitter
// that blocks on credits registers itself (a long-lived object), so the
// reservation path allocates nothing per packet.
type Waiter interface {
	CreditGranted()
}

// Gate is the transmitter-facing view of a downstream buffer's credits.
type Gate interface {
	// TryReserve takes bytes of credit for vl if available.
	TryReserve(vl ib.VL, bytes units.ByteSize) bool
	// ReserveForWaiter notifies w once bytes of credit for vl have been
	// reserved on its behalf. Waiters are served FIFO per VL.
	ReserveForWaiter(vl ib.VL, bytes units.ByteSize, w Waiter)
}

// Unlimited is the gate of a receiver that never back-pressures. RNIC
// receive paths use it: the ConnectX-4 RX pipeline is not the bottleneck in
// any of the paper's experiments (see model.NICParams.RxPipeline).
type Unlimited struct{}

// TryReserve always succeeds.
func (Unlimited) TryReserve(ib.VL, units.ByteSize) bool { return true }

// ReserveForWaiter notifies w immediately.
func (Unlimited) ReserveForWaiter(_ ib.VL, _ units.ByteSize, w Waiter) { w.CreditGranted() }

// Wire is one direction of a cable: a serialization resource owned by its
// transmitter plus a propagation delay. Transmitters must serialize their
// own access (Send panics on overlapping use, catching scheduler bugs).
// A cross-shard wire (NewCrossWire) differs only in how a delivery reaches
// the receiving engine: through its channel instead of its own engine.
type Wire struct {
	eng    *sim.Engine // the sending engine
	ch     *sim.Chan   // nil on a local wire
	bw     units.Bandwidth
	prop   units.Duration
	peer   Endpoint
	gate   Gate
	freeAt units.Time
	name   string
	// memoSize/memoSer cache the last serialization computation: a wire
	// direction carries essentially one packet size in steady state (data
	// segments one way, ACKs the other), and Serialization costs three
	// integer divisions per call.
	memoSize units.ByteSize
	memoSer  units.Duration
	// faults is nil unless the run's spec declares faults on this wire; the
	// fault-free hot path takes only the resulting dead branches.
	faults *Faults
}

// NewWire builds a wire toward peer whose ingress buffer is controlled by
// gate.
func NewWire(eng *sim.Engine, name string, bw units.Bandwidth, prop units.Duration, peer Endpoint, gate Gate) *Wire {
	if gate == nil {
		gate = Unlimited{}
	}
	return &Wire{eng: eng, bw: bw, prop: prop, peer: peer, gate: gate, name: name}
}

// Gate returns the downstream credit gate.
func (w *Wire) Gate() Gate { return w.gate }

// Name returns the wire's diagnostic name.
func (w *Wire) Name() string { return w.name }

// InstallFaults attaches fault state to the wire. acct, when non-nil, is
// the receiving port's ingress accounting, used to unwind the credit
// reservation of a dropped packet: the port's BufferGate on a local link,
// the link's CrossRecvGate on a cross-shard one. Called once, at
// fault-schedule install time, never on fault-free runs.
func (w *Wire) InstallFaults(f *Faults, acct IngressAccounting) {
	f.acct = acct
	w.faults = f
}

// FaultState returns the installed fault state (nil on fault-free runs).
func (w *Wire) FaultState() *Faults { return w.faults }

// FreeAt reports when the wire finishes its current transmission.
func (w *Wire) FreeAt() units.Time { return w.freeAt }

// Send begins injecting pkt now. The caller must have reserved downstream
// credits and ensured the wire is free. It returns the injection end time
// (last bit leaves the transmitter).
func (w *Wire) Send(pkt *ib.Packet) units.Time {
	ib.AssertLive(pkt)
	now := w.eng.Now()
	if now < w.freeAt {
		invariant(w.eng, w.name, "overlapping Send at %v, busy until %v", now, w.freeAt)
	}
	ser := w.memoSer
	if size := pkt.WireSize(); size != w.memoSize {
		ser = units.Serialization(size, w.bw)
		w.memoSize, w.memoSer = size, ser
	}
	var drop int64 // the event's A: 1 marks a fault-injected drop
	if f := w.faults; f != nil {
		if now < f.DownUntil {
			invariant(w.eng, w.name, "Send on a downed link (down until %v)", f.DownUntil)
		}
		ser = f.stretch(ser, now) // degraded rate bypasses the memo
		if f.drawDrop() {
			drop = 1
		}
	}
	w.freeAt = now.Add(ser)
	start := now.Add(w.prop)
	end := w.freeAt.Add(w.prop)
	// Deliver when the first bit lands. Receivers that act on full receipt
	// (an RNIC generating an ACK, a meter) use the end timestamp; a switch
	// may begin cut-through forwarding relative to start. Because every
	// port runs at the same rate, an egress that starts after
	// start+BaseLatency can never outrun the still-arriving tail.
	// Scheduled as a typed event — a closure here would be one heap
	// allocation per packet per hop. A cross-shard delivery goes into the
	// receiving shard's mailbox for the epoch containing start; a drop
	// travels too, so the channel's message sequence does not depend on
	// fault outcomes.
	if w.ch != nil {
		m := w.ch.Send(start, "xwire:deliver", w)
		m.Ptr, m.T0, m.T1, m.A = pkt, start, end, drop
		return w.freeAt
	}
	ev := w.eng.AtEvent(start, "link:deliver", w)
	ev.Ptr, ev.T0, ev.T1, ev.A = pkt, start, end, drop
	return w.freeAt
}

// HandleEvent delivers a scheduled arrival on the receiving engine (the
// typed form of the old per-packet delivery closure). Payload: Ptr =
// packet, T0 = first bit at the receiver, T1 = last bit; A = 1 marks a
// fault-injected drop, consumed at the receiver so the wire occupancy and
// credit flow stay physical.
func (w *Wire) HandleEvent(ev *sim.Event) {
	if ev.A != 0 {
		w.faults.dropArrived(ev.Ptr.(*ib.Packet))
		return
	}
	w.peer.DeliverArrival(ev.Ptr.(*ib.Packet), ev.T0, ev.T1)
}

// waiter is one queued reservation.
type waiter struct {
	bytes units.ByteSize
	w     Waiter
}

type vlState struct {
	window   units.ByteSize
	avail    units.ByteSize
	resident units.ByteSize // bytes physically in the buffer
	reserved units.ByteSize // reserved by sender, not yet arrived (in flight)
	escrow   units.ByteSize // released by departures, withheld from sender
	waiters  []waiter
	// hadWaiters latches once a reservation has ever queued on this VL. It
	// is the cheap always-on witness for Unreserve's safety contract: the
	// hook-skipping there is only sound on gates that never queue waiters
	// (see the Unreserve doc comment).
	hadWaiters bool

	arr     rateEstimator
	dep     rateEstimator
	arrPeak float64 // estimate of the sender's offered rate ro (see OnArrive)
	// minAvail tracks the low-water mark of avail since the last arrival
	// estimation window closed: zero means the sender was credit-limited
	// at some point in the window (so the measured arrival rate understates
	// its offered rate); positive means the measured rate IS the offered
	// rate and arrPeak may re-anchor downward.
	minAvail units.ByteSize

	// residEWMA and bias form a small integral controller that drives the
	// measured standing occupancy onto the frozen-occupancy target. A
	// rate-limited sender leaves part of its granted credit unused at any
	// instant (in flight or waiting for its next injection slot), which
	// would otherwise leave the occupancy one or two packets short.
	residEWMA float64
	bias      float64

	// pendRel is the credit-return event most recently scheduled for this
	// VL and pendRelAt the engine tick it was scheduled on. Two departures
	// of the same VL in the same tick (a trunk port draining through two
	// egresses at once) merge their returns into one event instead of
	// stacking a second at the identical timestamp. Cleared when the event
	// fires, so the pointer never outlives the engine's recycle.
	pendRel   *sim.Event
	pendRelAt units.Time
}

// BufferGate is the credit controller of one receiving port: per-VL windows
// with frozen-occupancy pacing.
type BufferGate struct {
	eng         *sim.Engine
	returnDelay units.Duration
	name        string // diagnostic: the ingress it guards (see SetName)
	vls         [ib.NumVLs]vlState
	onRelease   []func()
	// Frozen disables occupancy targeting (honest naive credits) for the
	// ablation benchmarks; the default true matches the testbed.
	frozen bool
	// eagerCredits disables same-tick credit-return coalescing (test-only:
	// the coalescing-equivalence tests compare both modes).
	eagerCredits bool
}

// rateEstimator measures a byte stream's rate over fixed time windows.
// Windowing (rather than per-event smoothing) matters because VL
// arbitration serves queues in bursts: per-packet instantaneous rates
// would reflect the in-burst drain rate, not the sustained one.
type rateEstimator struct {
	winStart units.Time
	acc      units.ByteSize
	rate     float64 // bytes per picosecond; 0 until the first window closes
	started  bool
}

// rateWindow is the estimation window; it must span several packets and at
// least one full VL-arbitration cycle.
const rateWindow = 5 * units.Microsecond

// update records bytes observed at now and reports whether this call closed
// an estimation window (i.e. e.rate was just refreshed).
func (e *rateEstimator) update(now units.Time, bytes units.ByteSize) bool {
	if !e.started {
		e.started = true
		e.winStart = now
		e.acc = bytes
		return false
	}
	e.acc += bytes
	elapsed := now.Sub(e.winStart)
	if elapsed < rateWindow {
		return false
	}
	inst := float64(e.acc) / float64(elapsed)
	if e.rate == 0 {
		e.rate = inst
	} else {
		e.rate = 0.5*inst + 0.5*e.rate
	}
	e.winStart = now
	e.acc = 0
	return true
}

// NewBufferGate builds a gate whose VL windows are given by windowFor.
// returnDelay models the latency for released credits to reach the
// upstream transmitter (FC update propagation).
func NewBufferGate(eng *sim.Engine, returnDelay units.Duration, windowFor func(ib.VL) units.ByteSize) *BufferGate {
	g := &BufferGate{eng: eng, returnDelay: returnDelay, frozen: true}
	for i := range g.vls {
		w := windowFor(ib.VL(i))
		g.vls[i].window = w
		g.vls[i].avail = w
		g.vls[i].minAvail = w
	}
	return g
}

// takeAvail moves bytes from the available pool into the reserved pool,
// tracking the window's credit low-water mark for the offered-rate
// estimator (see OnArrive).
func (s *vlState) takeAvail(bytes units.ByteSize) {
	s.avail -= bytes
	s.reserved += bytes
	if s.avail < s.minAvail {
		s.minAvail = s.avail
	}
}

// popWaiter removes the front waiter, compacting in place: advancing the
// slice (waiters[1:]) would walk the backing array forward and force an
// allocation on a later append, which the credit-limited steady state hits
// once per packet.
func (s *vlState) popWaiter() {
	n := copy(s.waiters, s.waiters[1:])
	s.waiters[n] = waiter{} // drop the waiter reference
	s.waiters = s.waiters[:n]
}

// grantWaiters serves queued reservations FIFO while credit suffices.
func (s *vlState) grantWaiters() {
	for len(s.waiters) > 0 {
		wt := s.waiters[0]
		if s.avail < wt.bytes {
			break
		}
		s.takeAvail(wt.bytes)
		s.popWaiter()
		wt.w.CreditGranted()
	}
}

// SetFrozen toggles frozen-occupancy pacing (true by default). With false
// the gate behaves as a plain credit window: occupancy converges to ~W
// under oversubscription. Exposed for the ablation study.
func (g *BufferGate) SetFrozen(on bool) { g.frozen = on }

// SetName names the gate for invariant reports (typically the ingress wire
// it guards). Purely diagnostic.
func (g *BufferGate) SetName(name string) { g.name = name }

// OnRelease registers a hook invoked whenever credits are released; switch
// egress schedulers use it to re-arm.
func (g *BufferGate) OnRelease(fn func()) { g.onRelease = append(g.onRelease, fn) }

// TryReserve implements Gate.
func (g *BufferGate) TryReserve(vl ib.VL, bytes units.ByteSize) bool {
	s := &g.vls[vl]
	if len(s.waiters) > 0 || s.avail < bytes {
		s.minAvail = 0 // a denied request means the sender is credit-limited
		return false
	}
	s.takeAvail(bytes)
	return true
}

// ReserveForWaiter implements Gate.
func (g *BufferGate) ReserveForWaiter(vl ib.VL, bytes units.ByteSize, w Waiter) {
	s := &g.vls[vl]
	if len(s.waiters) == 0 && s.avail >= bytes {
		s.takeAvail(bytes)
		w.CreditGranted()
		return
	}
	s.minAvail = 0 // a queued waiter means the sender is credit-limited
	s.hadWaiters = true
	s.waiters = append(s.waiters, waiter{bytes: bytes, w: w})
}

// Unreserve returns a reservation that will not be used (an arbitration
// candidate that lost). The bytes go straight back to the available pool
// and any waiters are re-examined.
//
// Unlike scheduleRelease, Unreserve deliberately does NOT fire the
// onRelease hooks, and under the current wiring that is safe. Each gate
// guards one ingress buffer fed by exactly one transmitter. Gates whose
// transmitter is an RNIC (the only users of ReserveForWaiter, hence the
// only gates with waiters) never see Unreserve, because RNIC egress is
// a wire, not an arbiter. Gates whose transmitter is a switch egress port
// see Unreserve only from that port's own pick(): the pick always ends by
// transmitting the winning candidate, which re-schedules the same port's
// next evaluation — the exact work the onRelease hook would have queued —
// so firing hooks here would only add a redundant same-timestamp wake-up.
// If gates ever gain multiple reservers (e.g. shared output buffers),
// Unreserve must notify hooks like scheduleRelease does;
// TestTrunkArbitrationUnreserveNoStall (internal/topology) guards the
// current contract end to end, and the hadWaiters check below promotes the
// single-reserver assumption to an always-on invariant: a gate that has
// ever queued a waiter is RNIC-fed, and an Unreserve on it means a second
// reserver appeared whose hooks (and waiters' wake-ups) would be skipped.
func (g *BufferGate) Unreserve(vl ib.VL, bytes units.ByteSize) {
	s := &g.vls[vl]
	if s.hadWaiters {
		invariant(g.eng, g.name, "Unreserve(vl=%d) on a VL that has queued waiters — hook-skipping is only safe under single-reserver wiring (see Unreserve doc)", vl)
	}
	if s.reserved < bytes {
		invariant(g.eng, g.name, "unreserve of %v exceeds reserved %v on vl %d", bytes, s.reserved, vl)
	}
	s.reserved -= bytes
	s.avail += bytes
	s.grantWaiters()
}

// Occupancy reports the bytes currently resident in the VL's buffer.
func (g *BufferGate) Occupancy(vl ib.VL) units.ByteSize { return g.vls[vl].resident }

// Available reports the sender-visible credits for a VL.
func (g *BufferGate) Available(vl ib.VL) units.ByteSize { return g.vls[vl].avail }

// Window reports the VL's configured window.
func (g *BufferGate) Window(vl ib.VL) units.ByteSize { return g.vls[vl].window }

// OnArrive records that bytes of a packet have fully arrived into the
// buffer. Called by the receiving port.
func (g *BufferGate) OnArrive(vl ib.VL, bytes units.ByteSize) {
	s := &g.vls[vl]
	s.resident += bytes
	s.reserved -= bytes
	if s.reserved < 0 {
		invariant(g.eng, g.name, "more bytes arrived than were reserved on vl %d (over by %v)", vl, -s.reserved)
	}
	if !s.arr.update(g.eng.Now(), bytes) {
		return
	}
	// Maintain the offered-rate estimate ro. While the sender is
	// credit-limited, arrivals are clocked by credit returns — the measured
	// rate reflects the drain, not the offer — so the estimate may only
	// ratchet up (the initial unthrottled burst is what reveals ro). But
	// when the whole estimation window passed without avail ever reaching
	// zero, the sender was pacing itself: the measured rate IS its offered
	// rate, and the estimate re-anchors to it. Without the re-anchor a
	// sender that stops mid-run (or slows down) pins ro at its historical
	// burst rate forever, which keeps target() below the window for
	// traffic that is no longer oversubscribed and escrows credits the
	// live flow is entitled to.
	if s.minAvail > 0 {
		s.arrPeak = s.arr.rate
	} else if s.arr.rate > s.arrPeak {
		s.arrPeak = s.arr.rate
	}
	s.minAvail = s.avail
}

// OnDepart records that bytes have left the buffer (egress complete) and
// decides how much credit to return to the sender.
func (g *BufferGate) OnDepart(vl ib.VL, bytes units.ByteSize) {
	s := &g.vls[vl]
	if s.resident < bytes {
		invariant(g.eng, g.name, "departure of %v exceeds resident %v on vl %d", bytes, s.resident, vl)
	}
	s.resident -= bytes
	s.dep.update(g.eng.Now(), bytes)

	pending := bytes + s.escrow
	s.escrow = 0
	release := pending
	if s.resident == 0 && s.reserved == 0 {
		// The buffer fully drained: return everything. A rate-limited
		// sender that then bursts its whole window refills the buffer only
		// to W*(1 - rd/ro) — the same frozen-occupancy value — so this
		// cannot inflate the standing queue; and without it, escrowed
		// credits of a flow whose queue emptied would deadlock the sender.
		g.scheduleRelease(vl, release)
		return
	}
	if g.frozen {
		target := g.target(s)
		if target < s.window {
			// Oversubscribed: steer the standing occupancy to the target.
			// Sampling at departure sees the post-dequeue trough; adding
			// half the departed packet recovers the time-average.
			s.residEWMA = 0.1*float64(s.resident+bytes/2) + 0.9*s.residEWMA
			s.bias += 0.05 * (float64(target) - s.residEWMA)
			if s.bias < 0 {
				s.bias = 0
			}
			if max := float64(s.window - target); s.bias > max {
				s.bias = max
			}
		} else {
			s.bias = 0
		}
		// Credits already in the sender's hands or on the wire will turn
		// into future occupancy; cap total future occupancy at target.
		future := s.resident + s.reserved + s.avail
		headroom := target + units.ByteSize(s.bias) - future
		if headroom < 0 {
			headroom = 0
		}
		if release > headroom {
			s.escrow = release - headroom
			release = headroom
		}
	}
	if release > 0 {
		g.scheduleRelease(vl, release)
	}
}

// target computes the standing-occupancy target W*(1 - rd/ro).
func (g *BufferGate) target(s *vlState) units.ByteSize {
	if s.dep.rate <= 0 || s.arrPeak <= 0 {
		return s.window
	}
	ratio := s.dep.rate / s.arrPeak
	// Near-unity ratios mean the buffer is not meaningfully oversubscribed;
	// rate-estimation noise must not shrink the target to zero.
	if ratio >= 0.985 {
		return s.window
	}
	t := units.ByteSize(float64(s.window) * (1 - ratio))
	return t
}

// scheduleRelease delays a credit return by the FC-update propagation time.
// Typed event: credits return once per departure, so a closure here would
// allocate per packet. Payload: A = VL, B = bytes. Same-tick returns for
// one VL coalesce into the already-pending event (the bytes would have
// arrived at the same timestamp anyway; merging drops the duplicate event
// and the duplicate onRelease fan-out).
func (g *BufferGate) scheduleRelease(vl ib.VL, bytes units.ByteSize) {
	s := &g.vls[vl]
	now := g.eng.Now()
	if s.pendRel != nil && s.pendRelAt == now && !g.eagerCredits {
		s.pendRel.B += int64(bytes)
		return
	}
	ev := g.eng.AfterEvent(g.returnDelay, "link:credit", g)
	ev.A, ev.B = int64(vl), int64(bytes)
	s.pendRel, s.pendRelAt = ev, now
}

// HandleEvent applies a delayed credit return scheduled by scheduleRelease.
func (g *BufferGate) HandleEvent(ev *sim.Event) {
	vl, bytes := ib.VL(ev.A), units.ByteSize(ev.B)
	s := &g.vls[vl]
	if s.pendRel == ev {
		s.pendRel = nil
	}
	s.avail += bytes
	if s.avail+s.reserved+s.resident+s.escrow > s.window {
		invariant(g.eng, g.name, "credit conservation violated on vl %d: avail %v + reserved %v + resident %v + escrow %v > window %v",
			vl, s.avail, s.reserved, s.resident, s.escrow, s.window)
	}
	s.grantWaiters()
	for _, hook := range g.onRelease {
		hook()
	}
}
