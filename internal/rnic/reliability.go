// RC transport reliability: PSN tracking, ack timeouts, bounded retries
// with exponential backoff, RNR-style backoff, and terminal QP errors.
//
// The fabric model is lossless by construction, so reliability is OFF by
// default and costs the fault-free hot path nothing beyond nil checks: no
// PSN assignment, no timers, no per-stream state. Fault runs enable it on
// every NIC (EnableReliability must be fabric-wide — PSN admission assumes
// all RC senders stamp sequence numbers).
//
// # Retransmission state machine
//
// Sender, per in-flight operation (pendingSlot):
//
//	post ──> queued(deadline now+T) ──last segment on the wire──>
//	   armed(T<<retries)
//	   queued: no timer. Every deadline that passes while segments still
//	       wait in the local send queue is an RNR-style backoff (no retry
//	       consumed: the local engine is credit-starved or backlogged, and
//	       retransmitting would duplicate queue entries, not recover
//	       loss). The deadlines are the recorded one, then one per T
//	       (relDeferrals); they are counted, not scheduled.
//	   queued ──response to an earlier transmission──> retired
//	   armed ──ack/response──> retired (timer canceled)
//	   armed ──timeout──> retries++:
//	       retries > max  -> QP error: terminal completion + QPErrors++
//	       else           -> go-back-N retransmit of every segment (same
//	                         MsgID/OpRef/PSNs, fresh pooled packets),
//	                         queued(deadline now+T<<retries, saturating)
//
// An ack timer therefore fires only to act: it retransmits or errors the
// op out. A deadline equal to the instant the last segment leaves (or the
// op retires) counts as not yet due; RelStats, read with segments still
// queued, counts the deadlines at or before the read.
//
// Receiver, per (SrcNode, QP) stream: accept PSN == expected (advance);
// PSN < expected is a duplicate — re-ACK a final data segment (the
// original ACK was lost), re-serve a READ request (responses were lost),
// silently discard other segments; PSN > expected is a gap past a loss —
// discard and let the requester's timeout drive recovery.
package rnic

import (
	"fmt"
	"math"

	"repro/internal/ib"
	"repro/internal/sim"
	"repro/internal/units"
)

// streamKey identifies one direction of an RC connection: the sender's
// node plus the QP number both ends share.
type streamKey struct {
	node ib.NodeID
	qp   int
}

// RelStats are the reliability counters a fault run collects. All zero
// when reliability is disabled or no fault ever fired.
type RelStats struct {
	Retransmits uint64 // go-back-N retransmissions (per message, not per packet)
	RNRBackoffs uint64 // ack deadlines passed while segments were still queued locally
	QPErrors    uint64 // operations terminally failed after retry exhaustion
	DupPSN      uint64 // duplicate segments discarded (or re-ACKed/re-served)
	Gaps        uint64 // out-of-order segments discarded past a loss
	Recovered   uint64 // operations that completed after >=1 retransmission
	// LastRecovery is when the latest such operation's response arrived —
	// with the fault schedule's end time it bounds the fabric's recovery
	// interval.
	LastRecovery units.Time
}

// relState is the per-NIC reliability machinery. nil unless enabled.
type relState struct {
	ackTimeout units.Duration
	maxRetries int
	txPSN      map[streamKey]uint64 // sender: next PSN to assign per stream
	rxPSN      map[streamKey]uint64 // receiver: next PSN expected per stream
	stats      RelStats
}

// EnableReliability arms RC reliability with the given ack timeout and
// retry bound. Call before traffic starts, and on every NIC of the fabric.
func (r *RNIC) EnableReliability(ackTimeout units.Duration, maxRetries int) {
	if ackTimeout <= 0 {
		panic(fmt.Sprintf("rnic: non-positive ack timeout %v", ackTimeout))
	}
	if maxRetries < 0 {
		panic("rnic: negative retry bound")
	}
	r.rel = &relState{
		ackTimeout: ackTimeout,
		maxRetries: maxRetries,
		txPSN:      make(map[streamKey]uint64),
		rxPSN:      make(map[streamKey]uint64),
	}
}

// RelStats snapshots the reliability counters (zero when disabled). The
// deferrals of ops whose segments are still queued are added up to now,
// inclusive: a deadline at now has passed with the op still queued.
func (r *RNIC) RelStats() RelStats {
	if r.rel == nil {
		return RelStats{}
	}
	st := r.rel.stats
	now := r.eng.Now()
	for i := range r.pendingOps {
		if s := &r.pendingOps[i]; s.live && s.queued > 0 {
			st.RNRBackoffs += relDeferrals(s.deadline, now, r.rel.ackTimeout)
		}
	}
	return st
}

// nextPSN reserves n contiguous sequence numbers on a stream.
func (rel *relState) nextPSN(k streamKey, n uint64) uint64 {
	base := rel.txPSN[k]
	rel.txPSN[k] = base + n
	return base
}

// relVerdict classifies an incoming RC segment against the stream's
// expected PSN.
type relVerdict int

const (
	relAccept relVerdict = iota
	relDup
	relGap
)

// admit applies go-back-N receiver admission to pkt, advancing the
// stream's expected PSN on acceptance.
func (rel *relState) admit(pkt *ib.Packet) relVerdict {
	k := streamKey{node: pkt.SrcNode, qp: pkt.QP}
	cur := rel.rxPSN[k]
	switch {
	case pkt.PSN == cur:
		rel.rxPSN[k] = cur + 1
		return relAccept
	case pkt.PSN < cur:
		rel.stats.DupPSN++
		return relDup
	default:
		rel.stats.Gaps++
		return relGap
	}
}

// relBackoff doubles the base timeout retries times, saturating instead of
// overflowing (relDeadline additionally clamps now+d to units.MaxTime).
func relBackoff(base units.Duration, retries int32) units.Duration {
	d := base
	for i := int32(0); i < retries; i++ {
		if d > units.Duration(math.MaxInt64)/2 {
			return units.Duration(math.MaxInt64)
		}
		d *= 2
	}
	return d
}

// relDeadline is when a timer armed d after now would fire: the engine's
// After rule, saturating an overflowing now+d to units.MaxTime ("never").
func relDeadline(now units.Time, d units.Duration) units.Time {
	at := now.Add(d)
	if at < now {
		return units.MaxTime
	}
	return at
}

// relDeferrals counts the ack deadlines first, first+period, first+2*period,
// ... at or before last: the RNR backoffs of an op whose segments were
// queued from before first until after last. A timer armed at first and
// re-armed one period later at each expiry would have fired exactly this
// often by last. A first deadline of units.MaxTime counts 0.
func relDeferrals(first, last units.Time, period units.Duration) uint64 {
	if first > last {
		return 0
	}
	return uint64(last.Sub(first)/period) + 1
}

// relTimerHandler dispatches ack-timeout events. Payload: Ptr = the RNIC,
// A = OpRef, B = MsgID. One package-level instance serves every RNIC.
type relTimerHandler struct{}

var relTimerDispatch relTimerHandler

func (relTimerHandler) HandleEvent(ev *sim.Event) {
	ev.Ptr.(*RNIC).relTimeout(int32(ev.A), uint64(ev.B))
}

// relTimeout is the ack-timeout event body: retransmit, or terminal QP
// error (see the state machine in the package comment). The timer is armed
// only once every segment is on the wire.
func (r *RNIC) relTimeout(ref int32, msgID uint64) {
	if ref < 0 || int(ref) >= len(r.pendingOps) {
		return
	}
	s := &r.pendingOps[ref]
	if !s.live || s.msgID != msgID || s.qp == nil {
		return // retired in the same tick
	}
	s.timer = nil
	rel := r.rel
	if int(s.retries) >= rel.maxRetries {
		rel.stats.QPErrors++
		op, ok := r.takeSlot(ref, msgID)
		if ok {
			// Terminal "QP error" completion: the CQE fires (closed-loop
			// drivers keep running instead of hanging) and the failure is
			// observable through the QPErrors counter.
			r.completeAt(r.eng.Now(), op.onComplete)
		}
		return
	}
	s.retries++
	rel.stats.Retransmits++
	r.retransmit(s, ref, msgID)
}

// retransmit rebuilds and re-enqueues every segment of the slot's
// operation — same MsgID, OpRef and PSNs, fresh pooled packets — and
// records the first deadline with exponential backoff; relOnWire arms the
// timer once the segments are on the wire.
func (r *RNIC) retransmit(s *pendingSlot, ref int32, msgID uint64) {
	qp := s.qp
	op := s.op
	now := r.eng.Now()
	ready := now
	if op.verb != ib.VerbRead {
		// Hardware retransmission re-fetches the payload over PCIe; there
		// is no doorbell (the WQE is already resident in the NIC).
		ready = ready.Add(r.par.DMARead(op.payload))
	}
	segs := ib.SegmentAppend(r.segScratch[:0], op.payload, r.par.MTU)
	if op.verb == ib.VerbRead {
		segs = append(segs[:0], op.payload)
	}
	r.segScratch = segs[:0]
	for i, seg := range segs {
		kind := ib.KindData
		if op.verb == ib.VerbRead {
			kind = ib.KindReadRequest
		}
		pkt := r.pkts.Get()
		*pkt = ib.Packet{
			Kind:      kind,
			Verb:      op.verb,
			Transport: qp.Transport,
			SrcNode:   r.node,
			DestNode:  qp.Peer,
			QP:        qp.Num,
			MsgID:     msgID,
			SeqInMsg:  i,
			LastInMsg: i == len(segs)-1,
			Payload:   seg,
			SL:        qp.SL,
			OpRef:     ref,
			PSN:       s.basePSN + uint64(i),
		}
		if op.verb == ib.VerbRead {
			pkt.Payload = 0
			pkt.CreditBytes = op.payload
		}
		tx := r.getTx()
		tx.pkt = pkt
		tx.readyAt = ready
		tx.wire = r.wire
		tx.occupancy = r.occupancyFor(pkt.WireSize(), qp.msgCost(r))
		qp.engine.enqueue(tx)
	}
	s.queued = int32(len(segs))
	s.deadline = relDeadline(now, relBackoff(r.rel.ackTimeout, s.retries))
}

// relOnWire marks one of an op's segments as physically injected. When
// the last segment leaves, the deadlines that passed while segments were
// queued become RNR backoffs, and the ack timer is armed: the transport
// timeout measures fabric round-trip from the final transmission, not time
// spent behind other messages in the local send queue — otherwise any
// backlogged open-loop sender would retransmit spuriously regardless of
// loss.
func (r *RNIC) relOnWire(pkt *ib.Packet) {
	if pkt.OpRef < 0 || pkt.SrcNode != r.node {
		return
	}
	if pkt.Kind != ib.KindData && pkt.Kind != ib.KindReadRequest {
		return
	}
	if int(pkt.OpRef) >= len(r.pendingOps) {
		return
	}
	s := &r.pendingOps[pkt.OpRef]
	if s.live && s.msgID == pkt.MsgID && s.qp != nil && s.queued > 0 {
		s.queued--
		if s.queued == 0 {
			rel := r.rel
			rel.stats.RNRBackoffs += relDeferrals(s.deadline, r.eng.Now()-1, rel.ackTimeout)
			ev := r.eng.AfterEvent(relBackoff(rel.ackTimeout, s.retries), "rnic:rto", &relTimerDispatch)
			ev.Ptr = r
			ev.A, ev.B = int64(pkt.OpRef), int64(pkt.MsgID)
			s.timer = ev
		}
	}
}

// relNoteResponse records, just before an op retires, that its response
// arrived after at least one retransmission — the raw data behind the
// recovery-time metric. A retransmitted op can retire on an earlier
// transmission's response while its resent segments are still queued; the
// deadlines that passed before now are its RNR backoffs.
func (r *RNIC) relNoteResponse(ref int32, msgID uint64, at units.Time) {
	if ref < 0 || int(ref) >= len(r.pendingOps) {
		return
	}
	s := &r.pendingOps[ref]
	if !s.live || s.msgID != msgID {
		return
	}
	if s.queued > 0 {
		r.rel.stats.RNRBackoffs += relDeferrals(s.deadline, r.eng.Now()-1, r.rel.ackTimeout)
	}
	if s.retries > 0 {
		r.rel.stats.Recovered++
		if at > r.rel.stats.LastRecovery {
			r.rel.stats.LastRecovery = at
		}
	}
}
