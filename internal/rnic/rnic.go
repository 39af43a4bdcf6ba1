// Package rnic models the RDMA NIC (ConnectX-4 in the paper's testbed):
// queue pairs over RC and UD transports, the four verbs (SEND/RECV, WRITE,
// READ), PCIe interactions (MMIO doorbells, DMA fetch and delivery),
// parallel send processing engines with a per-message cost floor, hardware
// ACK generation, completion queue entries, and the internal loopback path
// that RPerf uses to cancel local-side processing (paper §IV).
//
// The execution sequences follow the paper's Figure 1 exactly:
//
//   - RC SEND: local DMA fetch -> wire -> remote ACKs immediately on
//     receipt (before its PCIe delivery) -> local CQE on ACK (Fig. 1d).
//   - UD SEND: CQE as soon as the request is on the wire (Fig. 1c).
//   - RC WRITE: remote DMA-writes the payload, then ACKs (Fig. 1b) — the
//     remote PCIe delay Qperf cannot avoid.
//   - RC READ: remote DMA read, response carries the payload, local DMA
//     write precedes the CQE (Fig. 1a).
package rnic

import (
	"fmt"

	"repro/internal/ib"
	"repro/internal/link"
	"repro/internal/model"
	"repro/internal/ring"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/units"
)

// CompletionFn receives the time at which a CQE became visible to software
// polling the completion queue.
type CompletionFn func(cqeAt units.Time)

// DeliverFn observes every data-bearing packet arriving from the wire
// (bandwidth meters hook it). wireEnd is when the last bit arrived at the
// port — the paper measures bandwidth "at the destination port".
type DeliverFn func(pkt *ib.Packet, wireEnd units.Time)

// RecvFn observes completed incoming messages. visibleAt is when receiving
// software can act on the message: for SEND, the RECV CQE (after the RX
// pipeline and payload DMA); for WRITE, the moment the payload has landed
// in host memory (pollable); for loopback, the local CQE.
type RecvFn func(pkt *ib.Packet, wireEnd, visibleAt units.Time)

// QP is a queue pair.
type QP struct {
	Num       int
	Transport ib.Transport
	Peer      ib.NodeID
	SL        ib.SL
	// MsgCost overrides the engine's per-message occupancy floor
	// (0 = NIC default). The pretend-LSG's deep batching lowers it.
	MsgCost  units.Duration
	Loopback bool
	engine   *engine
	owner    *RNIC
}

type pendingOp struct {
	verb       ib.Verb
	payload    units.ByteSize
	onComplete CompletionFn
}

// pendingSlot is one slab entry for an in-flight operation. live guards
// stale references; msgID is double-checked on retire so a forged or
// duplicated OpRef cannot complete someone else's operation. The tail
// fields exist only for RC reliability (reliability.go) and stay zero on
// fault-free runs: qp doubles as the "this op is reliability-tracked"
// marker. The slot is 80 B (TestPendingSlotSize).
type pendingSlot struct {
	op    pendingOp
	msgID uint64
	live  bool

	timer    *sim.Event // ack timer, armed once every segment is on the wire
	deadline units.Time // first ack deadline while segments are queued
	retries  int32      // retransmissions consumed so far
	queued   int32      // segments enqueued locally but not yet on the wire
	basePSN  uint64     // PSN of segment 0, stable across retransmits
	qp       *QP        // posting QP, for rebuilding segments on retransmit
}

// allocSlot registers an in-flight operation and returns its OpRef.
func (r *RNIC) allocSlot(msgID uint64, verb ib.Verb, payload units.ByteSize, cb CompletionFn) int32 {
	var ref int32
	if n := len(r.freeSlots); n > 0 {
		ref = r.freeSlots[n-1]
		r.freeSlots = r.freeSlots[:n-1]
	} else {
		r.pendingOps = append(r.pendingOps, pendingSlot{})
		ref = int32(len(r.pendingOps) - 1)
	}
	s := &r.pendingOps[ref]
	s.op = pendingOp{verb: verb, payload: payload, onComplete: cb}
	s.msgID = msgID
	s.live = true
	r.pendingLive++
	return ref
}

// takeSlot retires slot ref if it is live and matches msgID, returning the
// operation. Stale, unknown or mismatched references report false — the
// UD-style duplicate tolerance the map lookup used to provide.
func (r *RNIC) takeSlot(ref int32, msgID uint64) (pendingOp, bool) {
	if ref < 0 || int(ref) >= len(r.pendingOps) {
		return pendingOp{}, false
	}
	s := &r.pendingOps[ref]
	if !s.live || s.msgID != msgID {
		return pendingOp{}, false
	}
	op := s.op
	if s.timer != nil {
		r.eng.Cancel(s.timer)
		s.timer = nil
	}
	s.op = pendingOp{}
	s.live = false
	s.retries = 0
	s.queued = 0
	s.basePSN = 0
	s.qp = nil
	r.pendingLive--
	r.freeSlots = append(r.freeSlots, ref)
	return op, true
}

// getTx draws a zeroed txPacket from the free list; process releases it
// once the packet is on the wire.
func (r *RNIC) getTx() *txPacket {
	if n := len(r.txFree); n > 0 {
		tx := r.txFree[n-1]
		r.txFree[n-1] = nil
		r.txFree = r.txFree[:n-1]
		return tx
	}
	return &txPacket{}
}

func (r *RNIC) putTx(tx *txPacket) {
	*tx = txPacket{}
	r.txFree = append(r.txFree, tx)
}

// RNIC is one RDMA NIC.
type RNIC struct {
	eng  *sim.Engine
	par  model.NICParams
	node ib.NodeID
	jit  *rng.Source

	wire     *link.Wire // toward the fabric; set by Attach
	loopWire *link.Wire // internal loopback path
	sl2vl    ib.SL2VL
	// limits are per-VL injection token buckets (tenant slicing; see
	// injection.go). Possibly shared across NICs; nil entries are
	// unlimited.
	limits [ib.NumVLs]*InjectionLimiter

	engines []*engine // data engines
	ctrl    *engine   // responder engine: ACKs, READ responses

	qps        map[int]*QP
	nextQPNum  int
	nextEngine int
	nextMsgID  uint64

	// In-flight operations live in a slab indexed by the OpRef the packets
	// carry (and responders echo), not in a map: a map keyed by the
	// monotonically increasing MsgID accumulates tombstones under steady
	// insert/delete churn and rehashes periodically — a recurring
	// allocation on the per-message path.
	pendingOps  []pendingSlot
	freeSlots   []int32
	pendingLive int

	// rel is the RC reliability machinery (reliability.go); nil unless the
	// run enables fault injection, so the fault-free hot path pays only
	// nil checks.
	rel *relState

	// Hot-path free lists (see DESIGN.md "Hot-path memory discipline").
	// Packets are drawn here and released by their terminal consumer —
	// usually a *different* RNIC's pool, which is fine: a destination
	// reuses the data packets it absorbs for the ACKs it generates, so
	// per-RNIC pools balance without any shared state.
	pkts       ib.PacketPool
	txFree     []*txPacket
	segScratch []units.ByteSize

	// occSize/occCost/occVal memoize the last EngineOccupancy computation:
	// a NIC emits essentially one (wire size, message cost) combination in
	// steady state, and the serialization inside costs integer divisions.
	occSize units.ByteSize
	occCost units.Duration
	occVal  units.Duration

	// OnDeliver and OnRecvMessage are optional observation hooks. Hooks
	// receive packets on loan: the pointer is released back to the packet
	// pool when the hook returns and must not be retained.
	OnDeliver     DeliverFn
	OnRecvMessage RecvFn

	// EagerWakes disables send-engine wake coalescing, restoring the
	// historical behavior of scheduling an engine evaluation at enqueue
	// time even when the engine is known to be busy, credit-blocked, or
	// already armed for an unchanged FIFO head (each such evaluation runs
	// as a no-op and re-arms itself). Test-only: the wake invariants tests
	// prove the coalesced scheduler injects the same packets at the same
	// times.
	EagerWakes bool

	// Counters for tests and diagnostics.
	SentMessages uint64
	RecvMessages uint64
}

// New builds an RNIC for the given node. jitter must be a dedicated stream.
func New(eng *sim.Engine, node ib.NodeID, par model.NICParams, jitter *rng.Source) *RNIC {
	r := &RNIC{
		eng:   eng,
		par:   par,
		node:  node,
		jit:   jitter,
		sl2vl: ib.DefaultSL2VL(),
		qps:   make(map[int]*QP),
	}
	n := par.SendEngines
	if n < 1 {
		n = 1
	}
	for i := 0; i < n; i++ {
		r.engines = append(r.engines, newEngine(r, fmt.Sprintf("eng%d", i)))
	}
	r.ctrl = newEngine(r, "ctrl")
	r.ctrl.reorder = true
	r.loopWire = link.NewWire(eng, fmt.Sprintf("n%d.loop", node), par.LoopbackBandwidth, 0, loopEndpoint{r}, link.Unlimited{})
	return r
}

// Node returns the RNIC's fabric address.
func (r *RNIC) Node() ib.NodeID { return r.node }

// Engine returns the simulation engine driving this RNIC.
func (r *RNIC) Engine() *sim.Engine { return r.eng }

// SplitRNG derives a deterministic random stream tied to this RNIC, for
// software layers (measurement loops, hosts) that need reproducible noise.
func (r *RNIC) SplitRNG(label string) *rng.Source { return r.jit.Split(label) }

// Params returns the NIC parameter set.
func (r *RNIC) Params() model.NICParams { return r.par }

// Attach wires the RNIC to the fabric. The topology layer constructs the
// wire with the peer's ingress endpoint and credit gate.
func (r *RNIC) Attach(w *link.Wire) { r.wire = w }

// SetSL2VL installs the fabric-wide SL-to-VL mapping so credits are
// reserved on the VL the switch will classify each packet into.
func (r *RNIC) SetSL2VL(t ib.SL2VL) { r.sl2vl = t }

// AddDeliverObserver chains fn onto OnDeliver after the observers already
// installed, so several meters can share one destination.
func (r *RNIC) AddDeliverObserver(fn DeliverFn) {
	prev := r.OnDeliver
	if prev == nil {
		r.OnDeliver = fn
		return
	}
	r.OnDeliver = func(pkt *ib.Packet, wireEnd units.Time) {
		prev(pkt, wireEnd)
		fn(pkt, wireEnd)
	}
}

// AddRecvObserver chains fn onto OnRecvMessage after the observers already
// installed.
func (r *RNIC) AddRecvObserver(fn RecvFn) {
	prev := r.OnRecvMessage
	if prev == nil {
		r.OnRecvMessage = fn
		return
	}
	r.OnRecvMessage = func(pkt *ib.Packet, wireEnd, visibleAt units.Time) {
		prev(pkt, wireEnd, visibleAt)
		fn(pkt, wireEnd, visibleAt)
	}
}

// QPOption customizes CreateQP.
type QPOption func(*QP)

// WithMsgCost overrides the per-message engine occupancy floor, modeling
// batched posting regimes.
func WithMsgCost(d units.Duration) QPOption { return func(q *QP) { q.MsgCost = d } }

// WithEngine pins the QP to a specific send engine.
func WithEngine(i int) QPOption {
	return func(q *QP) { q.engine = q.owner.engines[i%len(q.owner.engines)] }
}

// CreateQP creates a queue pair toward peer. QPs are spread round-robin
// over the send engines; RPerf relies on its wire and loopback QPs landing
// on distinct engines so local-side processing overlaps (paper §IV).
func (r *RNIC) CreateQP(t ib.Transport, peer ib.NodeID, sl ib.SL, opts ...QPOption) *QP {
	r.nextQPNum++
	q := &QP{
		Num:       r.nextQPNum,
		Transport: t,
		Peer:      peer,
		SL:        sl,
		Loopback:  peer == r.node,
		owner:     r,
	}
	q.engine = r.engines[r.nextEngine%len(r.engines)]
	r.nextEngine++
	for _, o := range opts {
		o(q)
	}
	return q
}

// PostSend posts a work request on qp at the current simulation time and
// returns the message ID. onComplete (optional) fires when the CQE becomes
// visible to polling software.
func (r *RNIC) PostSend(qp *QP, verb ib.Verb, payload units.ByteSize, onComplete CompletionFn) uint64 {
	if !qp.Transport.Supports(verb) {
		panic(fmt.Sprintf("rnic: transport %v does not support %v", qp.Transport, verb))
	}
	if verb == ib.VerbRecv {
		panic("rnic: RECV is pre-posted implicitly; post SEND/WRITE/READ")
	}
	if r.wire == nil && !qp.Loopback {
		panic("rnic: not attached to the fabric")
	}
	r.nextMsgID++
	msgID := r.nextMsgID
	now := r.eng.Now()

	// Local-side pre-wire path: MMIO doorbell, then payload DMA fetch
	// (READ requests carry no payload and skip the fetch — Fig. 1a).
	ready := now.Add(r.par.MMIOPost)
	if verb != ib.VerbRead {
		ready = ready.Add(r.par.DMARead(payload))
	}

	wire := r.wire
	if qp.Loopback {
		wire = r.loopWire
	}

	// One pending slot per operation that completes on a response: RC
	// SEND/WRITE (ACK), READ (response), and every loopback post (loopback
	// delivery). Non-loopback UD completes at injection and needs none.
	ref := int32(-1)
	if verb == ib.VerbRead || qp.Loopback ||
		((verb == ib.VerbSend || verb == ib.VerbWrite) && qp.Transport == ib.RC) {
		ref = r.allocSlot(msgID, verb, payload, onComplete)
	}

	segs := ib.SegmentAppend(r.segScratch[:0], payload, r.par.MTU)
	if verb == ib.VerbRead {
		segs = append(segs[:0], payload) // single request packet, no payload on the wire
	}
	r.segScratch = segs[:0]
	// RC reliability (fault runs only): reserve a contiguous PSN range for
	// the message and remember enough on the slot to rebuild its segments.
	// The ack timer is armed once the last segment is on the wire
	// (relOnWire); until then the slot holds only its first deadline.
	var basePSN uint64
	relTracked := false
	if rel := r.rel; rel != nil && ref >= 0 && !qp.Loopback && qp.Transport == ib.RC {
		relTracked = true
		basePSN = rel.nextPSN(streamKey{node: r.node, qp: qp.Num}, uint64(len(segs)))
	}
	for i, seg := range segs {
		kind := ib.KindData
		if verb == ib.VerbRead {
			kind = ib.KindReadRequest
		}
		pkt := r.pkts.Get()
		*pkt = ib.Packet{
			Kind:      kind,
			Verb:      verb,
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
		}
		if verb == ib.VerbRead {
			pkt.Payload = 0
			pkt.CreditBytes = payload // requested length rides in the header
		}
		if relTracked {
			pkt.PSN = basePSN + uint64(i)
		}
		tx := r.getTx()
		tx.pkt = pkt
		tx.readyAt = ready
		tx.wire = wire
		tx.occupancy = r.occupancyFor(pkt.WireSize(), qp.msgCost(r))
		if pkt.LastInMsg && qp.Transport == ib.UD && !qp.Loopback {
			// Fig. 1c: CQE as soon as the request is on the wire. The
			// callback rides in the txPacket instead of a closure.
			tx.udComplete = onComplete
		}
		qp.engine.enqueue(tx)
	}
	if relTracked {
		s := &r.pendingOps[ref]
		s.qp = qp
		s.basePSN = basePSN
		s.queued = int32(len(segs))
		s.deadline = relDeadline(now, r.rel.ackTimeout)
	}
	r.SentMessages++
	return msgID
}

func (q *QP) msgCost(r *RNIC) units.Duration {
	if q.MsgCost > 0 {
		return q.MsgCost
	}
	return r.par.MessageCost
}

// occupancyFor computes the engine occupancy of a packet, memoizing the
// last (size, msgCost) pair.
func (r *RNIC) occupancyFor(size units.ByteSize, msgCost units.Duration) units.Duration {
	if size != r.occSize || msgCost != r.occCost {
		r.occSize, r.occCost = size, msgCost
		r.occVal = r.par.EngineOccupancy(size, msgCost)
	}
	return r.occVal
}

// cqeHandler dispatches a scheduled completion: Ptr holds the
// CompletionFn, T0 the CQE-visibility timestamp. One package-level instance
// serves every RNIC — the event carries all the state.
type cqeHandler struct{}

var cqeDispatch cqeHandler

func (*cqeHandler) HandleEvent(ev *sim.Event) {
	ev.Ptr.(CompletionFn)(ev.T0)
}

func (r *RNIC) completeAt(at units.Time, cb CompletionFn) {
	if cb == nil {
		return
	}
	// Typed event: a CQE fires per message, and the closure it would
	// otherwise capture (cb, at) fits the event's inline payload.
	ev := r.eng.AtEvent(at, "rnic:cqe", &cqeDispatch)
	ev.Ptr, ev.T0 = cb, at
}

// vlOf maps a packet to the VL used for downstream credit accounting.
func (r *RNIC) vlOf(pkt *ib.Packet) ib.VL { return r.sl2vl.Map(pkt.SL) }

// DeliverArrival implements link.Endpoint for the fabric-facing port. The
// RNIC is the terminal consumer of every packet it absorbs: once the
// per-kind handler (and every observer hook it invokes) returns, the packet
// goes back to this RNIC's pool.
func (r *RNIC) DeliverArrival(pkt *ib.Packet, arriveStart, arriveEnd units.Time) {
	ib.AssertLive(pkt)
	// Go-back-N receiver admission (fault runs only). Runs before the
	// per-kind handlers and their hooks, so duplicates and out-of-order
	// segments never count toward delivered bandwidth: the meters measure
	// goodput under failure, not wire throughput.
	if rel := r.rel; rel != nil && pkt.Transport == ib.RC &&
		(pkt.Kind == ib.KindData || pkt.Kind == ib.KindReadRequest) {
		switch rel.admit(pkt) {
		case relDup:
			// Already accepted once. A duplicate final data segment means
			// the original ACK was lost — re-ACK so the requester can
			// retire. A duplicate READ request means responses were lost —
			// fall through and re-serve it. Other duplicates are dropped.
			if pkt.Kind == ib.KindData {
				if pkt.LastInMsg {
					r.sendAck(pkt, arriveEnd)
				}
				r.pkts.Put(pkt)
				return
			}
		case relGap:
			// A loss upstream left a hole in the stream; discard until the
			// requester's timeout retransmits from the gap.
			r.pkts.Put(pkt)
			return
		}
	}
	switch pkt.Kind {
	case ib.KindData:
		r.recvData(pkt, arriveEnd)
	case ib.KindAck:
		r.recvAck(pkt, arriveEnd)
	case ib.KindReadRequest:
		r.serveRead(pkt, arriveEnd)
	case ib.KindReadResponse:
		r.recvReadResponse(pkt, arriveEnd)
	default:
		panic(fmt.Sprintf("rnic: unexpected packet kind %v", pkt.Kind))
	}
}

func (r *RNIC) recvData(pkt *ib.Packet, wireEnd units.Time) {
	if r.OnDeliver != nil {
		r.OnDeliver(pkt, wireEnd)
	}
	if pkt.LastInMsg {
		r.RecvMessages++
	}
	if pkt.Transport == ib.RC && pkt.LastInMsg {
		r.sendAck(pkt, wireEnd)
	}
	if pkt.LastInMsg && r.OnRecvMessage != nil {
		var visible units.Time
		switch pkt.Verb {
		case ib.VerbSend:
			// RECV CQE: RX pipeline, payload DMA, CQE write, visible to
			// the host's CQ polling.
			visible = wireEnd.Add(r.par.RxPipeline + r.par.DMAWrite(pkt.Payload) + r.par.CQEDeliver)
		case ib.VerbWrite:
			// No CQE at the responder: data is host-visible once the DMA
			// write lands.
			visible = wireEnd.Add(r.par.RxPipeline + r.par.DMAWrite(pkt.Payload))
		default:
			visible = wireEnd
		}
		r.OnRecvMessage(pkt, wireEnd, visible)
	}
	r.pkts.Put(pkt) // terminal consumer: every hook above has run
}

// sendAck generates the hardware ACK for the final segment of an RC
// message. For SEND the remote RNIC responds immediately on receipt,
// before the payload's PCIe write (Fig. 1d) — the property RPerf exploits.
// For WRITE the ACK follows the DMA write (Fig. 1b). Reliability also uses
// it to re-ACK a duplicate final segment whose original ACK was lost.
func (r *RNIC) sendAck(pkt *ib.Packet, wireEnd units.Time) {
	ackReady := wireEnd.Add(r.par.AckTurnaround)
	if pkt.Verb == ib.VerbWrite {
		ackReady = ackReady.Add(r.par.DMAWrite(pkt.Payload))
	}
	if r.par.JitterMean > 0 {
		ackReady = ackReady.Add(units.Duration(r.jit.Exp(float64(r.par.JitterMean))))
	}
	ack := r.pkts.Get()
	*ack = ib.Packet{
		Kind:      ib.KindAck,
		Verb:      pkt.Verb,
		Transport: ib.RC,
		SrcNode:   r.node,
		DestNode:  pkt.SrcNode,
		QP:        pkt.QP,
		MsgID:     pkt.MsgID,
		LastInMsg: true,
		SL:        pkt.SL,
		OpRef:     pkt.OpRef, // echo: lets the requester retire by slab index
	}
	tx := r.getTx()
	tx.pkt = ack
	tx.readyAt = ackReady
	tx.wire = r.wire
	tx.occupancy = r.occupancyFor(ack.WireSize(), r.par.AckTurnaround)
	r.ctrl.enqueue(tx)
}

func (r *RNIC) recvAck(pkt *ib.Packet, wireEnd units.Time) {
	if r.rel != nil {
		r.relNoteResponse(pkt.OpRef, pkt.MsgID, wireEnd)
	}
	if op, ok := r.takeSlot(pkt.OpRef, pkt.MsgID); ok {
		r.completeAt(wireEnd.Add(r.par.AckRxProc+r.par.CQEDeliver), op.onComplete)
	}
	// else: duplicate/unknown, UD-style tolerance
	r.pkts.Put(pkt)
}

// serveRead handles an incoming READ request: DMA read from host memory,
// then the responder engine streams the payload back (Fig. 1a).
func (r *RNIC) serveRead(pkt *ib.Packet, wireEnd units.Time) {
	length := pkt.CreditBytes
	srcNode, qpNum, msgID, sl, ref := pkt.SrcNode, pkt.QP, pkt.MsgID, pkt.SL, pkt.OpRef
	r.pkts.Put(pkt) // the request is consumed here; responses are new packets
	ready := wireEnd.Add(r.par.DMARead(length))
	segs := ib.SegmentAppend(r.segScratch[:0], length, r.par.MTU)
	r.segScratch = segs[:0]
	for i, seg := range segs {
		rsp := r.pkts.Get()
		*rsp = ib.Packet{
			Kind:      ib.KindReadResponse,
			Verb:      ib.VerbRead,
			Transport: ib.RC,
			SrcNode:   r.node,
			DestNode:  srcNode,
			QP:        qpNum,
			MsgID:     msgID,
			SeqInMsg:  i,
			LastInMsg: i == len(segs)-1,
			Payload:   seg,
			SL:        sl,
			OpRef:     ref,
		}
		tx := r.getTx()
		tx.pkt = rsp
		tx.readyAt = ready
		tx.wire = r.wire
		tx.occupancy = r.occupancyFor(rsp.WireSize(), r.par.MessageCost)
		r.ctrl.enqueue(tx)
	}
}

func (r *RNIC) recvReadResponse(pkt *ib.Packet, wireEnd units.Time) {
	if r.OnDeliver != nil {
		r.OnDeliver(pkt, wireEnd)
	}
	if pkt.LastInMsg {
		if r.rel != nil {
			r.relNoteResponse(pkt.OpRef, pkt.MsgID, wireEnd)
		}
		if op, ok := r.takeSlot(pkt.OpRef, pkt.MsgID); ok {
			// Fig. 1a: local DMA write of the fetched data precedes the CQE.
			r.completeAt(wireEnd.Add(r.par.DMAWrite(pkt.Payload)+r.par.CQEDeliver), op.onComplete)
		}
	}
	r.pkts.Put(pkt)
}

// loopEndpoint receives loopback traffic.
type loopEndpoint struct{ r *RNIC }

func (le loopEndpoint) DeliverArrival(pkt *ib.Packet, arriveStart, arriveEnd units.Time) {
	r := le.r
	ib.AssertLive(pkt)
	if pkt.LastInMsg {
		if op, ok := r.takeSlot(pkt.OpRef, pkt.MsgID); ok {
			// The loopback request is "finished" when the local RNIC has
			// fully processed it (paper §IV); its CQE timing captures
			// exactly the local-side overhead RPerf subtracts.
			r.completeAt(arriveEnd.Add(r.par.CQEDeliver), op.onComplete)
			if r.OnRecvMessage != nil {
				r.OnRecvMessage(pkt, arriveEnd, arriveEnd.Add(r.par.CQEDeliver))
			}
		}
	}
	r.pkts.Put(pkt)
}

// engine is one send processing unit: a queue of packets injected onto a
// wire, each occupying the engine for max(per-message cost, serialization).
type engine struct {
	r     *RNIC
	label string
	// fifo is a data engine's queue, served in post order to preserve
	// per-QP WQE ordering; ready is the responder engine's (see reorder).
	fifo      ring.Ring[*txPacket]
	ready     readyHeap
	busyUntil units.Time
	scheduled *sim.Event // the single pending wake, if any
	waitTx    *txPacket  // the entry the blocked reservation belongs to
	waiting   bool       // blocked on downstream credits
	// reorder makes the engine serve the earliest-ready packet instead of
	// strict FIFO. The responder (ctrl) engine uses it: a SEND's ACK is
	// ready immediately on receipt, and must not stall behind an earlier
	// WRITE's ACK that is still waiting for its payload DMA (Fig. 1b vs
	// 1d).
	reorder bool
}

type txPacket struct {
	pkt       *ib.Packet
	readyAt   units.Time
	occupancy units.Duration
	wire      *link.Wire
	reserved  bool
	// admitted records that the injection limiter already charged this
	// packet, so a credit-blocked resume does not charge it twice.
	admitted bool
	// seq is the responder heap's enqueue sequence; it fills the padding
	// after the two flags, so the struct stays 48 B.
	seq uint32
	// udComplete, when set, delivers the UD completion (Fig. 1c: CQE as
	// soon as the request is on the wire) — stored inline rather than as a
	// captured closure.
	udComplete CompletionFn
}

// readyHeap is the responder engine's queue: a binary min-heap ordered by
// (readyAt, enqueue sequence), so it serves the earliest-ready packet and,
// among packets ready at the same time, the one enqueued first. Push and
// pop cost O(log n); the order is a linear scan's for the earliest readyAt
// with the lowest queue index. The heap keys on readyAt as set before
// enqueue: nothing may write it while the packet is queued.
type readyHeap struct {
	s   []*txPacket
	seq uint32 // stamped on the next push; wraps
}

// servedBefore reports whether a is served ahead of b. The sequence
// comparison is wrap-safe while the queued packets' sequences span fewer
// than 2^31 pushes.
func servedBefore(a, b *txPacket) bool {
	if a.readyAt != b.readyAt {
		return a.readyAt < b.readyAt
	}
	return int32(a.seq-b.seq) < 0
}

func (h *readyHeap) push(tx *txPacket) {
	tx.seq = h.seq
	h.seq++
	h.s = append(h.s, tx)
	i := len(h.s) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !servedBefore(tx, h.s[p]) {
			break
		}
		h.s[i] = h.s[p]
		i = p
	}
	h.s[i] = tx
}

// pop removes the minimum, h.s[0].
func (h *readyHeap) pop() {
	n := len(h.s) - 1
	last := h.s[n]
	h.s[n] = nil // clear the vacated slot: the txPacket is recycled
	h.s = h.s[:n]
	if n == 0 {
		return
	}
	i := 0
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if c+1 < n && servedBefore(h.s[c+1], h.s[c]) {
			c++
		}
		if !servedBefore(h.s[c], last) {
			break
		}
		h.s[i] = h.s[c]
		i = c
	}
	h.s[i] = last
}

func newEngine(r *RNIC, name string) *engine {
	return &engine{r: r, label: "rnic:" + name}
}

// queued returns the number of packets waiting in the engine.
func (e *engine) queued() int {
	if e.reorder {
		return len(e.ready.s)
	}
	return e.fifo.Len()
}

// head returns the packet to serve next: a data engine's oldest, the
// responder engine's earliest-ready. The engine must not be empty.
func (e *engine) head() *txPacket {
	if e.reorder {
		return e.ready.s[0]
	}
	return *e.fifo.Front()
}

func (e *engine) push(tx *txPacket) {
	if e.reorder {
		e.ready.push(tx)
		return
	}
	e.fifo.Push(tx)
}

// pop removes head().
func (e *engine) pop() {
	if e.reorder {
		e.ready.pop()
		return
	}
	e.fifo.Pop()
}

func (e *engine) enqueue(tx *txPacket) {
	e.push(tx)
	if e.r.EagerWakes {
		e.wake(e.r.eng.Now())
		return
	}
	// Wake coalescing: skip evaluations that are guaranteed no-ops.
	if e.waiting {
		return // blocked on credits; CreditGranted re-arms the engine
	}
	if !e.reorder && e.fifo.Len() > 1 {
		return // FIFO head unchanged; its evaluation is already pending
	}
	// The new entry cannot inject before it is ready or before its wire
	// frees (and never before busyUntil — wake clamps that); an earlier
	// evaluation would only observe the constraint and re-arm itself.
	at := e.r.eng.Now()
	if tx.readyAt > at {
		at = tx.readyAt
	}
	if w := tx.wire.FreeAt(); w > at {
		at = w
	}
	e.wake(at)
}

// wake keeps exactly one pending evaluation scheduled, moving it earlier
// when needed. A single outstanding event per engine keeps the event count
// linear in the packet count. Requests earlier than busyUntil are clamped
// up to it: the engine cannot serve anything before its current occupancy
// ends, so waking sooner would be a guaranteed no-op (same argument —
// and the same invariants-test lock — as the switch's pick-wake clamp).
func (e *engine) wake(at units.Time) {
	if e.busyUntil > at && !e.r.EagerWakes {
		at = e.busyUntil
	}
	if e.scheduled != nil {
		if e.scheduled.Time() <= at {
			return
		}
		// Pull the pending evaluation earlier in place: an O(1) move in
		// the calendar wheel, no allocation.
		e.r.eng.Reschedule(e.scheduled, at)
		return
	}
	e.scheduled = e.r.eng.AtEvent(at, e.label, e)
}

// HandleEvent runs the pending engine evaluation (typed form of the old
// wake closure).
func (e *engine) HandleEvent(*sim.Event) {
	e.scheduled = nil
	e.process()
}

// CreditGranted implements link.Waiter: the reservation the engine blocked
// on has been made on its behalf.
func (e *engine) CreditGranted() {
	e.waitTx.reserved = true
	e.waitTx = nil
	e.waiting = false
	e.wake(e.r.eng.Now())
}

func (e *engine) process() {
	if e.waiting || e.queued() == 0 {
		return
	}
	now := e.r.eng.Now()
	head := e.head()
	t := now
	if head.readyAt > t {
		t = head.readyAt
	}
	if e.busyUntil > t {
		t = e.busyUntil
	}
	if head.wire.FreeAt() > t {
		t = head.wire.FreeAt()
	}
	if t > now {
		e.wake(t)
		return
	}
	vl := e.r.vlOf(head.pkt)
	// Tenant slicing: data packets bound for the fabric pass the VL's
	// injection bucket before reserving credits (see injection.go for why
	// loopback and ACK traffic is exempt). Tokens are charged exactly once
	// per packet, before any credit wait, so a blocked head holds its
	// admission across CreditGranted resumes.
	if lim := e.r.limits[vl]; lim != nil && !head.admitted &&
		head.wire == e.r.wire && head.pkt.Kind == ib.KindData {
		if at, ok := lim.admitAt(now, head.pkt.WireSize()); !ok {
			e.wake(at)
			return
		}
		head.admitted = true
	}
	if !head.reserved {
		if !head.wire.Gate().TryReserve(vl, head.pkt.WireSize()) {
			// Block on credits without capturing a closure: the engine is
			// the waiter; CreditGranted resumes it.
			e.waiting = true
			e.waitTx = head
			head.wire.Gate().ReserveForWaiter(vl, head.pkt.WireSize(), e)
			return
		}
	}
	e.pop()
	head.pkt.VL = vl
	injEnd := head.wire.Send(head.pkt)
	if e.r.rel != nil {
		e.r.relOnWire(head.pkt)
	}
	e.busyUntil = now.Add(head.occupancy)
	if head.udComplete != nil {
		// Fig. 1c: UD CQE once the request is on the wire.
		e.r.completeAt(injEnd.Add(e.r.par.CQEDeliver), head.udComplete)
	}
	e.r.putTx(head)
	if e.queued() > 0 {
		next := e.busyUntil
		if now > next {
			next = now
		}
		if !e.r.EagerWakes {
			// Re-arm for when the next pick can actually act, not merely
			// when this transmit's occupancy ends: an evaluation before
			// the head is ready (or its wire free) only observes the
			// constraint and re-arms itself at exactly this time.
			nh := e.head()
			if nh.readyAt > next {
				next = nh.readyAt
			}
			if w := nh.wire.FreeAt(); w > next {
				next = w
			}
		}
		e.wake(next)
	}
}

// PendingOps reports outstanding un-acked operations (tests).
func (r *RNIC) PendingOps() int { return r.pendingLive }

// QueuedPackets reports the packets waiting in the data send engines and
// in the responder engine (tests).
func (r *RNIC) QueuedPackets() (data, responder int) {
	for _, e := range r.engines {
		data += e.queued()
	}
	return data, r.ctrl.queued()
}
