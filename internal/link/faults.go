// Fault injection for wires. A Faults object holds the mutable fault state
// of ONE wire direction: a Bernoulli drop probability with its own seeded
// RNG stream, a degraded-rate interval that stretches serialization, and a
// down interval (enforced by the owning transmitter — switch egress ports
// stop picking candidates for a downed port; the wire itself only asserts
// that nothing slips through).
//
// # Determinism contract
//
// Fault state is attached AFTER construction and only on runs whose spec
// declares faults, through a nil-checked pointer on Wire: a
// fault-free run takes only dead branches, draws nothing from any RNG, and
// stays byte-identical to pre-fault builds. Drop decisions are drawn at
// SEND time from a per-wire stream split off the scenario root by wire
// name: the send order on one wire is byte-deterministic across shard
// counts (the sharded-equivalence suite proves it), so the k-th packet on a
// wire sees the same draw no matter how the fabric is partitioned.
//
// # What happens to a dropped packet
//
// The loss point is modeled at the receiver: the packet still occupies the
// wire (serialization + propagation), then vanishes instead of being
// delivered. Credit-wise the drop behaves as an arrival followed by an
// immediate departure, so the sender's reserved bytes flow back through the
// normal credit-return path and losslessness bookkeeping stays conserved.
// That path is the receiving port's BufferGate on a local link and the
// link's CrossRecvGate on a cross-shard one, whose credit message then
// crosses back to the sending shard.
// The packet's buffer is intentionally NOT returned to the packet pool:
// drops are rare, pools are per-shard, and a cross-shard drop would
// otherwise hand a sender-owned buffer to the receiving shard's pool.
package link

import (
	"fmt"

	"repro/internal/ib"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/units"
)

// Faults is the fault state of one wire direction. The zero value is not
// usable; construct with NewFaults. Counter fields are written on the
// receiving side for drops and the sending side for sends, and must only be
// read after the run completes (the shard barrier orders them).
type Faults struct {
	dropProb float64
	dropRNG  *rng.Source

	// rateScale > 1 stretches serialization while now < degradedUntil
	// (a port renegotiated to a lower rate).
	rateScale     float64
	degradedUntil units.Time

	// DownUntil is advisory: the owning transmitter must not Send while
	// now < DownUntil (switch ports enforce this in their pick loop); the
	// wire asserts it as an invariant to catch failover bugs.
	DownUntil units.Time

	// acct is the receiving port's ingress accounting, used to unwind a
	// drop's credit reservation (nil when the receiver never
	// back-pressures, e.g. an RNIC RX pipeline).
	acct IngressAccounting

	Sent  uint64 // packets offered to the wire since faults were installed
	Drops uint64 // packets dropped
}

// NewFaults returns an inert fault state (no drop, no degradation).
func NewFaults() *Faults {
	return &Faults{rateScale: 1}
}

// SetDrop arms Bernoulli loss: each Send independently drops with
// probability prob, drawn from src (one stream per wire direction).
func (f *Faults) SetDrop(prob float64, src *rng.Source) {
	f.dropProb = prob
	f.dropRNG = src
}

// SetDegraded stretches serialization by scale (>1 = slower) until the
// given time. Passive: the interval ends by the clock passing until, so no
// heal event is needed.
func (f *Faults) SetDegraded(until units.Time, scale float64) {
	f.degradedUntil = until
	f.rateScale = scale
}

// stretch applies the degraded-rate interval to a serialization time.
func (f *Faults) stretch(ser units.Duration, now units.Time) units.Duration {
	if now < f.degradedUntil && f.rateScale > 1 {
		return units.Duration(float64(ser) * f.rateScale)
	}
	return ser
}

// drawDrop decides the fate of the packet being sent now. Exactly one RNG
// draw per send when loss is armed; zero draws otherwise, so arming loss on
// one wire cannot shift another wire's stream.
func (f *Faults) drawDrop() bool {
	f.Sent++
	if f.dropProb <= 0 || f.dropRNG == nil {
		return false
	}
	return f.dropRNG.Float64() < f.dropProb
}

// dropArrived consumes a drop on the receiving engine: count it and unwind
// the sender's credit reservation as an arrival + instant departure.
func (f *Faults) dropArrived(pkt *ib.Packet) {
	f.Drops++
	if f.acct != nil {
		size := pkt.WireSize()
		f.acct.OnArrive(pkt.VL, size)
		f.acct.OnDepart(pkt.VL, size)
	}
}

// invariant reports a violated link-layer invariant and halts the run. The
// report names the engine (shard) and its current simulated time plus the
// wire or gate that tripped, so a fault-schedule failure in a sharded run
// says when and where, not just what.
func invariant(eng *sim.Engine, name, format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	where := name
	if where == "" {
		where = "gate"
	}
	if eng != nil {
		if l := eng.Label(); l != "" {
			where = l + "/" + where
		}
		panic(fmt.Sprintf("link %s: t=%v: %s", where, eng.Now(), msg))
	}
	panic(fmt.Sprintf("link %s: %s", where, msg))
}
