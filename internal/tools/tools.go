// Package tools models the existing RDMA measurement tools the paper
// evaluates against RPerf (§III): Perftest's ping-pong latency test and
// Qperf's WRITE-based latency test. Both are faithful to the measurement
// loop structure the paper describes, which is exactly what makes them
// inaccurate for switch latency:
//
//   - Perftest: the server replies in software, so the measurement includes
//     remote CQE delivery, CQ polling, response construction and a second
//     full posting path — plus the local posting path, twice.
//   - Qperf: the server does not reply in software to the WRITE itself, but
//     the ACK waits for the remote PCIe write (Fig. 1b), data polling adds
//     host time at both ends, and the loop timestamps around syscalls. It
//     reports only an average — no tail.
//
// Both measure 10-20x the switch's true contribution (Fig. 6 vs Fig. 4).
package tools

import (
	"fmt"

	"repro/internal/host"
	"repro/internal/ib"
	"repro/internal/rnic"
	"repro/internal/stats"
	"repro/internal/units"
)

// Perftest is a ping-pong latency session (ib_send_lat style).
type Perftest struct {
	client *host.Host
	server *host.Host
	cQP    *rnic.QP
	sQP    *rnic.QP
	hist   *stats.Histogram

	payload units.ByteSize
	warmup  units.Time
	stopped bool
	t0      units.Time
}

// NewPerftest wires a ping-pong pair. Payload flows in both directions.
func NewPerftest(client, server *host.Host, payload units.ByteSize, warmup units.Time) (*Perftest, error) {
	if payload <= 0 {
		return nil, fmt.Errorf("tools: payload must be positive")
	}
	p := &Perftest{
		client:  client,
		server:  server,
		payload: payload,
		warmup:  warmup,
		hist:    stats.NewHistogram(),
	}
	p.cQP = client.NIC.CreateQP(ib.RC, server.NIC.Node(), 0)
	p.sQP = server.NIC.CreateQP(ib.RC, client.NIC.Node(), 0)

	// Server: poll the RECV CQ, build the pong in software, post it.
	server.NIC.AddRecvObserver(func(pkt *ib.Packet, _, visibleAt units.Time) {
		if pkt.SrcNode != client.NIC.Node() || pkt.Verb != ib.VerbSend {
			return
		}
		eng := server.NIC.Engine()
		respondAt := visibleAt.Add(server.PollDelay() + server.TurnaroundDelay())
		eng.At(respondAt, "perftest:pong", func() {
			server.NIC.PostSend(p.sQP, ib.VerbSend, p.payload, nil)
		})
	})
	// Client: poll for the pong; one RTT sample per iteration.
	client.NIC.AddRecvObserver(func(pkt *ib.Packet, _, visibleAt units.Time) {
		if pkt.SrcNode != server.NIC.Node() || pkt.Verb != ib.VerbSend {
			return
		}
		eng := client.NIC.Engine()
		t1 := visibleAt.Add(client.PollDelay())
		eng.At(t1, "perftest:sample", func() {
			if eng.Now() >= p.warmup {
				p.hist.RecordDuration(t1.Sub(p.t0))
			}
			p.iterate()
		})
	})
	return p, nil
}

// Start begins the ping-pong loop.
func (p *Perftest) Start() { p.iterate() }

// Stop ends the loop after the in-flight iteration.
func (p *Perftest) Stop() { p.stopped = true }

func (p *Perftest) iterate() {
	if p.stopped {
		return
	}
	// The software timestamp is taken immediately before posting, so the
	// local posting path is inside the measurement — one of the biases
	// the paper calls out (§III).
	p.t0 = p.client.NIC.Engine().Now()
	p.client.NIC.PostSend(p.cQP, ib.VerbSend, p.payload, nil)
}

// RTT returns the measured distribution (median and tail both available —
// perftest does report tails).
func (p *Perftest) RTT() *stats.Histogram { return p.hist }

// Qperf is a WRITE-based latency session (qperf rc_rdma_write_lat style):
// each side writes into the other's polled memory region.
type Qperf struct {
	client *host.Host
	server *host.Host
	cQP    *rnic.QP
	sQP    *rnic.QP

	payload units.ByteSize
	warmup  units.Time
	stopped bool
	t0      units.Time

	// Qperf reports only an average; we accumulate a plain mean (and keep
	// a histogram internally for tests to confirm the tool *could* not
	// report what it does not track).
	sum   float64
	count uint64
}

// NewQperf wires a WRITE ping-pong pair.
func NewQperf(client, server *host.Host, payload units.ByteSize, warmup units.Time) (*Qperf, error) {
	if payload <= 0 {
		return nil, fmt.Errorf("tools: payload must be positive")
	}
	q := &Qperf{
		client:  client,
		server:  server,
		payload: payload,
		warmup:  warmup,
	}
	q.cQP = client.NIC.CreateQP(ib.RC, server.NIC.Node(), 0)
	q.sQP = server.NIC.CreateQP(ib.RC, client.NIC.Node(), 0)

	// Server: data-poll the target buffer; write back as soon as the
	// payload lands (no CQE on the responder side for WRITE).
	server.NIC.AddRecvObserver(func(pkt *ib.Packet, _, visibleAt units.Time) {
		if pkt.SrcNode != client.NIC.Node() || pkt.Verb != ib.VerbWrite {
			return
		}
		eng := server.NIC.Engine()
		respondAt := visibleAt.Add(server.MemPollDelay())
		eng.At(respondAt, "qperf:writeback", func() {
			server.NIC.PostSend(q.sQP, ib.VerbWrite, q.payload, nil)
		})
	})
	// Client: data-poll for the write-back.
	client.NIC.AddRecvObserver(func(pkt *ib.Packet, _, visibleAt units.Time) {
		if pkt.SrcNode != server.NIC.Node() || pkt.Verb != ib.VerbWrite {
			return
		}
		eng := client.NIC.Engine()
		t1 := visibleAt.Add(client.MemPollDelay())
		eng.At(t1, "qperf:sample", func() {
			// Loop overhead: timer syscalls and bookkeeping inside the
			// measured region.
			lat := t1.Sub(q.t0) + client.LoopOverhead()
			if eng.Now() >= q.warmup {
				q.sum += float64(lat)
				q.count++
			}
			q.iterate()
		})
	})
	return q, nil
}

// Start begins the loop.
func (q *Qperf) Start() { q.iterate() }

// Stop ends the loop after the in-flight iteration.
func (q *Qperf) Stop() { q.stopped = true }

func (q *Qperf) iterate() {
	if q.stopped {
		return
	}
	q.t0 = q.client.NIC.Engine().Now()
	q.client.NIC.PostSend(q.cQP, ib.VerbWrite, q.payload, nil)
}

// MeanRTT is the only statistic qperf exposes (the paper: "Qperf does not
// report tail RTT").
func (q *Qperf) MeanRTT() units.Duration {
	if q.count == 0 {
		return 0
	}
	return units.Duration(q.sum / float64(q.count))
}

// Samples reports the iteration count.
func (q *Qperf) Samples() uint64 { return q.count }
