// Package traffic implements the paper's two traffic generator types (§V)
// plus the QoS-gaming variant of §VIII-C:
//
//   - BSG (bandwidth-sensitive generator): open-loop RC flows; the
//     generator keeps a deep pipeline of asynchronous WRITEs posted so the
//     RNIC engine and fabric, not the application, set the pace. The
//     achieved bandwidth is measured at the destination port.
//   - LSG (latency-sensitive generator): closed-loop 64 B RC SENDs whose
//     RTT an RPerf session measures (package core).
//   - PretendLSG: a BSG that games the QoS configuration by sending its
//     bulk data as small (256 B) messages on the latency SL with deep
//     doorbell batching.
package traffic

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/ib"
	"repro/internal/rnic"
	"repro/internal/stats"
	"repro/internal/units"
)

// BSGConfig parameterizes a bandwidth-sensitive generator.
type BSGConfig struct {
	// Payload is the message size (4096 B in the converged experiments).
	Payload units.ByteSize
	// SL tags the flow's service level.
	SL ib.SL
	// Outstanding is the posting pipeline depth. It must cover the
	// bandwidth-delay product of the congested path; the default 256
	// suffices for every experiment in the paper.
	Outstanding int
	// MsgCost overrides the RNIC's per-message engine cost to model
	// batched posting (0 = NIC default). The pretend-LSG uses the NIC's
	// BatchedMessageCost.
	MsgCost units.Duration
	// UseSend selects two-sided SENDs for the bulk flow instead of the
	// default one-sided WRITEs.
	UseSend bool
}

// BSG is a running bandwidth-sensitive generator.
type BSG struct {
	cfg     BSGConfig
	verb    ib.Verb
	src     *rnic.RNIC
	qp      *rnic.QP
	meter   *stats.BandwidthMeter
	onDone  rnic.CompletionFn // created once; posting per-message closures would allocate per message
	stopped bool
}

// NewBSG builds a generator from src toward dst and registers its meter on
// the destination RNIC. Multiple BSGs may share a destination; each meter
// counts only its own source's packets, mirroring the paper's per-BSG
// bandwidth accounting (Fig. 13).
func NewBSG(src, dst *rnic.RNIC, cfg BSGConfig) (*BSG, error) {
	if cfg.Payload <= 0 {
		return nil, fmt.Errorf("traffic: BSG payload must be positive")
	}
	if cfg.Outstanding <= 0 {
		cfg.Outstanding = 256
	}
	var opts []rnic.QPOption
	if cfg.MsgCost > 0 {
		opts = append(opts, rnic.WithMsgCost(cfg.MsgCost))
	}
	verb := ib.VerbWrite
	if cfg.UseSend {
		verb = ib.VerbSend
	}
	b := &BSG{
		cfg:   cfg,
		verb:  verb,
		src:   src,
		qp:    src.CreateQP(ib.RC, dst.Node(), cfg.SL, opts...),
		meter: stats.NewBandwidthMeter(),
	}
	b.onDone = func(units.Time) { b.post() }
	dst.AddDeliverObserver(func(pkt *ib.Packet, wireEnd units.Time) {
		if pkt.SrcNode == src.Node() && pkt.Kind == ib.KindData && pkt.SL == cfg.SL {
			b.meter.Record(wireEnd, pkt.Payload)
		}
	})
	return b, nil
}

// Start opens the measurement window at warmup and fills the pipeline.
func (b *BSG) Start(warmup units.Time) {
	b.meter.Open(warmup)
	for i := 0; i < b.cfg.Outstanding; i++ {
		b.post()
	}
}

func (b *BSG) post() {
	if b.stopped {
		return
	}
	b.src.PostSend(b.qp, b.verb, b.cfg.Payload, b.onDone)
}

// Stop ceases posting; in-flight messages drain naturally.
func (b *BSG) Stop() { b.stopped = true }

// CloseAt ends the measurement window.
func (b *BSG) CloseAt(t units.Time) { b.meter.Close(t) }

// Goodput reports delivered payload bandwidth at the destination port.
func (b *BSG) Goodput() units.Bandwidth { return b.meter.Goodput() }

// Messages reports delivered message count inside the window.
func (b *BSG) Messages() uint64 { return b.meter.Messages() }

// NewPretendLSG builds the gaming generator of §VIII-C: bulk data
// segmented into small messages on the latency-sensitive SL, with deep
// batching to recover message rate. It is just a BSG with a particular
// configuration — which is the paper's point.
func NewPretendLSG(src, dst *rnic.RNIC, sl ib.SL) (*BSG, error) {
	return NewBSG(src, dst, BSGConfig{
		Payload: 256,
		SL:      sl,
		MsgCost: src.Params().BatchedMessageCost,
		// A deeper pipeline: small messages at high rate across a
		// congested VL need more outstanding requests to stay open-loop.
		Outstanding: 1024,
	})
}

// LSGConfig parameterizes a latency-sensitive generator.
type LSGConfig struct {
	// Payload defaults to the paper's 64 B.
	Payload units.ByteSize
	// SL tags the flow (SL1 in the dedicated-SL experiments).
	SL ib.SL
	// Warmup discards early samples.
	Warmup units.Time
}

// LSG is a latency-sensitive generator: a closed-loop RPerf session.
type LSG struct {
	Session *core.Session
}

// NewLSG builds an LSG from src toward dst.
func NewLSG(src *rnic.RNIC, dst ib.NodeID, cfg LSGConfig) (*LSG, error) {
	if cfg.Payload == 0 {
		cfg.Payload = 64
	}
	s, err := core.New(src, dst, core.Config{
		Payload: cfg.Payload,
		SL:      cfg.SL,
		Warmup:  cfg.Warmup,
		// Model the measurement loop's per-iteration software overhead;
		// see core.Config.GapJitter.
		GapJitter: 2 * units.Microsecond,
	})
	if err != nil {
		return nil, err
	}
	return &LSG{Session: s}, nil
}

// Start begins the closed loop.
func (l *LSG) Start() { l.Session.Start() }

// RTT returns the measured distribution.
func (l *LSG) RTT() *stats.Histogram { return l.Session.RTT() }
