// Package workload implements the deterministic open-loop arrival
// subsystem: traffic whose send times are set by an arrival *process*
// (Poisson, fixed-rate, or an explicit trace) instead of by completion of
// the previous message. Closed-loop generators (package traffic) answer
// "how fast can this fabric go?"; open-loop generators answer the
// production question "what latency does the fabric give at X% offered
// load?" — the two diverge sharply near saturation, because an open-loop
// source keeps offering work while the fabric falls behind.
//
// Determinism: every group's arrival schedule draws from a sealed stream
// rng.New(seed).Split("arrival:<group-index>") — a pure function of
// (seed, group index), deliberately NOT derived from the cluster's root
// RNG (whose state depends on construction-time split counts). The
// schedule is therefore byte-identical across shard counts, both barrier
// modes, and parallel vs sequential sweeps, and identical between a run
// and its fault-free or isolation twin.
//
// Open-loop semantics: arrivals never experience backpressure. When a
// source's NIC window is full, the arrival queues in an unbounded
// per-source backlog; the recorded sojourn time runs from *arrival* to
// completion (not from post to completion), so backlog wait — the honest
// cost of overload — is inside the measured distribution.
package workload

import (
	"fmt"
	"sort"

	"repro/internal/ib"
	"repro/internal/rng"
	"repro/internal/rnic"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/units"
)

// Arrival process kinds.
const (
	// Poisson draws i.i.d. exponential inter-arrival gaps with mean
	// 1/RateMps — the memoryless open-loop baseline.
	Poisson = "poisson"
	// Fixed spaces arrivals exactly 1/RateMps apart (a deterministic
	// pacer, the D in M/D/1 turned around).
	Fixed = "fixed"
	// Trace replays an explicit list of arrival offsets (TraceUs,
	// microseconds from run start, sorted, non-negative), repeated from
	// its period until the horizon when Repeat is set by the caller via a
	// trace long enough — the subsystem itself replays the list once.
	Trace = "trace"
)

// Arrival describes an arrival process. RateMps is in messages per
// second (poisson, fixed); TraceUs lists explicit offsets in microseconds
// from run start (trace).
type Arrival struct {
	Kind    string
	RateMps float64
	TraceUs []float64
}

// StreamLabel is the sealed RNG label for a group's arrival stream.
func StreamLabel(group int) string { return fmt.Sprintf("arrival:%d", group) }

// Stream returns the sealed arrival stream for (seed, group): the only
// randomness the open-loop subsystem ever consumes, derived from the
// experiment seed directly so it cannot be perturbed by construction
// order, sharding, faults, or anything else in the run.
func Stream(seed uint64, group int) *rng.Source {
	return rng.New(seed).Split(StreamLabel(group))
}

// Times generates the arrival schedule from an already-positioned stream:
// ascending times in [0, horizon). Only the poisson kind consumes
// randomness; fixed and trace schedules are randomness-free (the stream
// is still passed so callers can continue drawing source assignments from
// the same sealed sequence).
func Times(src *rng.Source, a Arrival, horizon units.Time) []units.Time {
	var out []units.Time
	switch a.Kind {
	case Poisson:
		if a.RateMps <= 0 {
			return nil
		}
		meanGap := float64(units.Second) / a.RateMps // ps
		t := 0.0
		for {
			t += src.Exp(meanGap)
			at := units.Time(int64(t))
			if at >= horizon {
				return out
			}
			out = append(out, at)
		}
	case Fixed:
		if a.RateMps <= 0 {
			return nil
		}
		gap := float64(units.Second) / a.RateMps // ps
		for i := 0; ; i++ {
			at := units.Time(int64(float64(i)*gap + 0.5))
			if at >= horizon {
				return out
			}
			out = append(out, at)
		}
	case Trace:
		for _, us := range a.TraceUs {
			at := units.Time(int64(us*float64(units.Microsecond) + 0.5))
			if at >= horizon {
				break
			}
			out = append(out, at)
		}
		return out
	}
	return nil
}

// Schedule is the pure function the determinism contract names: the full
// arrival schedule of one group, depending only on (seed, group index,
// arrival spec, horizon). The property tests and the shard-equivalence
// suite both pin this.
func Schedule(seed uint64, group int, a Arrival, horizon units.Time) []units.Time {
	return Times(Stream(seed, group), a, horizon)
}

// Config parameterizes an open-loop generator group.
type Config struct {
	// Seed and Group identify the sealed arrival stream (see Stream).
	Seed  uint64
	Group int
	// Arrival is the arrival process.
	Arrival Arrival
	// Payload is the per-message size in bytes.
	Payload units.ByteSize
	// SL tags the group's traffic.
	SL ib.SL
	// UseSend selects two-sided SENDs (the openlsg flavor) instead of the
	// default one-sided WRITEs (openbsg).
	UseSend bool
	// Horizon bounds the schedule: arrivals land in [0, Horizon).
	Horizon units.Time
	// Warmup opens the measurement window: sojourns of messages *arriving*
	// at or after Warmup are recorded, earlier ones warm the fabric.
	Warmup units.Time
	// Window caps the per-source in-NIC outstanding messages; arrivals
	// beyond it wait in the unbounded backlog (default 16 — several times
	// the bandwidth-delay product of a 56 Gbps host link, so the cap never
	// throttles an uncongested source). The cap keeps the RNIC's send FIFO
	// bounded under overload without ever backpressuring the arrival
	// process itself, and makes the backlog depth an honest congestion
	// signal rather than an artifact of NIC queue capacity.
	Window int
	// MsgCost overrides the RNIC per-message engine cost (0 = NIC default).
	MsgCost units.Duration
}

// Open is a running open-loop group: one QP per source NIC, a shared
// pre-generated arrival schedule, per-source sojourn histograms and
// destination-side goodput meters.
type Open struct {
	cfg     Config
	times   []units.Time // full group schedule, ascending
	srcs    []*openSrc
	backMax int // max backlog depth seen across sources
}

// openSrc is one source's slice of the group. Completions on an RC QP are
// delivered in posting order (the send FIFO is in-order and ACKs complete
// in PSN order), and this generator posts in arrival order, so the i-th
// completion always belongs to the i-th entry of sched — sojourn pairing
// needs three counters, no per-message bookkeeping.
type openSrc struct {
	o     *Open
	nic   *rnic.RNIC
	qp    *rnic.QP
	sched []units.Time // this source's arrivals, ascending
	next  int          // next arrival event to schedule
	// arrived/posted/completed are counts into sched:
	// backlog = arrived-posted, in-NIC = posted-completed.
	arrived   int
	posted    int
	completed int
	verb      ib.Verb
	onDone    rnic.CompletionFn // created once; per-message closures would allocate per message
	hist      *stats.Histogram  // per-source so shard goroutines never share one
	meter     *stats.BandwidthMeter
}

// HandleEvent fires one arrival (sim.Handler).
func (s *openSrc) HandleEvent(*sim.Event) { s.arrive() }

// NewOpen builds an open-loop group over the given source NICs toward dst.
// The whole arrival schedule is generated here from the sealed per-group
// stream — construction draws nothing from any cluster RNG and schedules
// no engine events (the phase-split contract of the experiments layer);
// arrival events start flowing at Start.
func NewOpen(srcs []*rnic.RNIC, dst *rnic.RNIC, cfg Config) (*Open, error) {
	if len(srcs) == 0 {
		return nil, fmt.Errorf("workload: open group needs at least one source")
	}
	if cfg.Payload <= 0 {
		return nil, fmt.Errorf("workload: open group payload must be positive")
	}
	if cfg.Window <= 0 {
		cfg.Window = 16
	}
	o := &Open{cfg: cfg}
	stream := Stream(cfg.Seed, cfg.Group)
	o.times = Times(stream, cfg.Arrival, cfg.Horizon)
	// Assign each arrival to a source by a uniform draw from the same
	// sealed stream, so the per-source sub-schedules — not just the union —
	// are a pure function of (seed, group, source count).
	perSrc := make([][]units.Time, len(srcs))
	for _, t := range o.times {
		i := 0
		if len(srcs) > 1 {
			i = stream.Intn(len(srcs))
		}
		perSrc[i] = append(perSrc[i], t)
	}
	verb := ib.VerbWrite
	if cfg.UseSend {
		verb = ib.VerbSend
	}
	var qpOpts []rnic.QPOption
	if cfg.MsgCost > 0 {
		qpOpts = append(qpOpts, rnic.WithMsgCost(cfg.MsgCost))
	}
	for i, nic := range srcs {
		s := &openSrc{
			o:     o,
			nic:   nic,
			qp:    nic.CreateQP(ib.RC, dst.Node(), cfg.SL, qpOpts...),
			sched: perSrc[i],
			verb:  verb,
			hist:  stats.NewHistogram(),
			meter: stats.NewBandwidthMeter(),
		}
		s.onDone = func(cqeAt units.Time) { s.complete(cqeAt) }
		src := nic.Node()
		meter := s.meter
		dst.AddDeliverObserver(func(pkt *ib.Packet, wireEnd units.Time) {
			if pkt.SrcNode == src && pkt.Kind == ib.KindData && pkt.SL == cfg.SL {
				meter.Record(wireEnd, pkt.Payload)
			}
		})
		o.srcs = append(o.srcs, s)
	}
	return o, nil
}

// Start opens the measurement meters at the warmup boundary and schedules
// each source's first arrival. Arrival events chain — each firing
// schedules the next — so the pending-event footprint is one per source
// regardless of schedule length.
func (o *Open) Start() {
	for _, s := range o.srcs {
		s.meter.Open(o.cfg.Warmup)
		s.scheduleNext()
	}
}

func (s *openSrc) scheduleNext() {
	if s.next >= len(s.sched) {
		return
	}
	s.nic.Engine().AtEvent(s.sched[s.next], "open.arrival", s)
	s.next++
}

// arrive fires one arrival: post immediately if the NIC window has room,
// otherwise the message waits in the backlog (open loop: the arrival
// process itself is never delayed).
func (s *openSrc) arrive() {
	s.arrived++
	if s.posted-s.completed < s.o.cfg.Window {
		s.post()
	} else if b := s.arrived - s.posted; b > s.o.backMax {
		s.o.backMax = b
	}
	s.scheduleNext()
}

func (s *openSrc) post() {
	s.nic.PostSend(s.qp, s.verb, s.o.cfg.Payload, s.onDone)
	s.posted++
}

// complete records the finished message's sojourn (arrival→CQE) and, if
// the backlog is non-empty, posts the next waiting message.
func (s *openSrc) complete(cqeAt units.Time) {
	at := s.sched[s.completed] // in-order completion: FIFO pairing
	s.completed++
	if at >= s.o.cfg.Warmup {
		s.hist.Record(int64(cqeAt.Sub(at)))
	}
	if s.posted < s.arrived {
		s.post()
	}
}

// CloseAt freezes the goodput meters at the end of the measurement window.
func (o *Open) CloseAt(t units.Time) {
	for _, s := range o.srcs {
		s.meter.Close(t)
	}
}

// Sojourns merges the per-source sojourn histograms in source order (the
// merge order is fixed, so the result is deterministic) and returns the
// group's arrival→completion distribution.
func (o *Open) Sojourns() *stats.Histogram {
	h := stats.NewHistogram()
	for _, s := range o.srcs {
		h.Merge(s.hist)
	}
	return h
}

// DeliveredGoodput sums the per-source destination meters: the group's
// delivered payload bandwidth inside the measurement window.
func (o *Open) DeliveredGoodput() units.Bandwidth {
	var bw units.Bandwidth
	for _, s := range o.srcs {
		bw += s.meter.Goodput()
	}
	return bw
}

// ArrivalsIn counts schedule entries in [start, end) — the offered message
// count of the measurement window, available without running anything
// because the schedule is pre-generated.
func (o *Open) ArrivalsIn(start, end units.Time) int {
	lo := sort.Search(len(o.times), func(i int) bool { return o.times[i] >= start })
	hi := sort.Search(len(o.times), func(i int) bool { return o.times[i] >= end })
	return hi - lo
}

// OfferedGoodput is the offered payload bandwidth over [start, end):
// scheduled arrivals times payload, divided by the window — what the
// sources *ask* of the fabric, regardless of what it delivers.
func (o *Open) OfferedGoodput(start, end units.Time) units.Bandwidth {
	if end <= start {
		return 0
	}
	n := o.ArrivalsIn(start, end)
	return units.Rate(units.ByteSize(n)*o.cfg.Payload, end.Sub(start))
}

// BacklogMax is the deepest per-source backlog observed (0 when the window
// never filled — the uncongested regime).
func (o *Open) BacklogMax() int { return o.backMax }

// Backlog returns the current total backlog across sources (messages
// arrived but not yet posted), for tests and diagnostics.
func (o *Open) Backlog() int {
	n := 0
	for _, s := range o.srcs {
		n += s.arrived - s.posted
	}
	return n
}

// Completed returns the total completed message count across sources.
func (o *Open) Completed() uint64 {
	var n uint64
	for _, s := range o.srcs {
		n += uint64(s.completed)
	}
	return n
}
