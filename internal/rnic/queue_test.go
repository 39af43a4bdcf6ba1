package rnic

import (
	"fmt"
	"math"
	"testing"
	"unsafe"

	"repro/internal/rng"
	"repro/internal/units"
)

// refQueue is the send-engine queue the ring and the heap replaced, kept as
// their reference: one slice per engine, served at index 0 by a data engine
// and, by the responder engine, at the earliest readyAt with the lowest
// index among ties (a linear scan), and closed up by shifting the entries
// behind the served one down.
type refQueue struct {
	queue   []*txPacket
	reorder bool
}

func (q *refQueue) pickIndex() int {
	if !q.reorder {
		return 0
	}
	best := 0
	for i, tx := range q.queue {
		if tx.readyAt < q.queue[best].readyAt {
			best = i
		}
	}
	return best
}

func (q *refQueue) remove(idx int) {
	copy(q.queue[idx:], q.queue[idx+1:])
	last := len(q.queue) - 1
	q.queue[last] = nil
	q.queue = q.queue[:last]
}

// queuePair drives one engine's queue and its reference in step.
type queuePair struct {
	e   *engine
	ref refQueue
}

func newQueuePair(reorder bool) *queuePair {
	e := newEngine(nil, "q")
	e.reorder = reorder
	return &queuePair{e: e, ref: refQueue{reorder: reorder}}
}

func (p *queuePair) push(tx *txPacket) {
	p.e.push(tx)
	p.ref.queue = append(p.ref.queue, tx)
}

// serve removes the packet the engine serves next and fails unless it is
// the one the reference serves.
func (p *queuePair) serve(t *testing.T) {
	t.Helper()
	idx := p.ref.pickIndex()
	want := p.ref.queue[idx]
	if got := p.e.head(); got != want {
		t.Fatalf("reorder=%v depth %d: serves readyAt %v seq %d, reference serves index %d (readyAt %v seq %d)",
			p.e.reorder, len(p.ref.queue), got.readyAt, got.seq, idx, want.readyAt, want.seq)
	}
	p.e.pop()
	p.ref.remove(idx)
}

// readyOffsets are the few readyAt offsets the fuzzer draws from, so that
// equal readyAt values — where the tie-break decides — are common.
var readyOffsets = [8]units.Duration{0, 0, 1, 1, 2, 5, 40, 300}

// engineQueueMaxDepth bounds an input's queue depth, keeping the reference
// scan's cost per input small.
const engineQueueMaxDepth = 4096

// FuzzEngineQueue decodes bytes into push and serve sequences and applies
// each to a data engine and to the responder engine, beside the reference
// slice queue. Every served packet must be the one the reference serves,
// and the depths must agree after every operation.
//
// The first byte starts the responder heap's sequence up to 4,080 pushes
// short of its wrap, so most inputs compare sequences across it. Each
// further byte is an operation: its top two bits select push n, push 8n,
// serve n or serve 8n, with n = 1 + the low six bits. The clock advances
// by one per serve operation, and a pushed packet is ready at the clock
// plus one of readyOffsets, drawn by a generator the operation bytes feed.
func FuzzEngineQueue(f *testing.F) {
	f.Add([]byte{0, 0x03, 0x82, 0x05, 0xbf})
	f.Add([]byte{255, 0x3f, 0x3f, 0x80, 0x3f, 0xbf, 0xbf, 0xff})
	// Thousands deep: bursts to 3,584 queued (the ring grows to 4,096),
	// then 5,120 pushes and serves in 512s at up to the 4,096 bound, so
	// the ring's live span wraps past its end (and the heap's sequence
	// wraps after 113 pushes), then small churn and a drain.
	deep := []byte{7}
	for i := 0; i < 7; i++ {
		deep = append(deep, 0x7f)
	}
	for i := 0; i < 10; i++ {
		deep = append(deep, 0x7f, 0xff)
	}
	for i := 0; i < 20; i++ {
		deep = append(deep, 0x3f, 0xbf, 0x07, 0x87)
	}
	f.Add(deep)
	src := rng.New(11)
	for _, n := range []int{16, 64, 256} {
		b := make([]byte, n)
		for i := range b {
			b[i] = byte(src.Intn(256))
		}
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		if len(in) == 0 {
			return
		}
		data, resp := newQueuePair(false), newQueuePair(true)
		resp.e.ready.seq = math.MaxUint32 - uint32(in[0])<<4
		state := uint32(in[0])*0x9e3779b1 | 1
		var now units.Time
		pairs := []*queuePair{data, resp}
		for _, op := range in[1:] {
			state ^= uint32(op) * 0x85ebca6b
			n := 1 + int(op&0x3f)
			switch op >> 6 {
			case 1:
				n *= 8
				fallthrough
			case 0:
				for i := 0; i < n && len(data.ref.queue) < engineQueueMaxDepth; i++ {
					state ^= state << 13
					state ^= state >> 17
					state ^= state << 5
					ready := now.Add(readyOffsets[state%uint32(len(readyOffsets))])
					for _, p := range pairs {
						p.push(&txPacket{readyAt: ready})
					}
				}
			case 3:
				n *= 8
				fallthrough
			case 2:
				now++
				for i := 0; i < n && len(data.ref.queue) > 0; i++ {
					for _, p := range pairs {
						p.serve(t)
					}
				}
			}
			for _, p := range pairs {
				if got, want := p.e.queued(), len(p.ref.queue); got != want {
					t.Fatalf("reorder=%v: %d queued, reference %d", p.e.reorder, got, want)
				}
			}
		}
		for len(data.ref.queue) > 0 {
			for _, p := range pairs {
				p.serve(t)
			}
		}
		// A drained heap pins no packet: every vacated slot was cleared.
		for i, tx := range resp.e.ready.s[:cap(resp.e.ready.s)] {
			if tx != nil {
				t.Fatalf("drained heap still holds a packet in slot %d", i)
			}
		}
	})
}

// TestTxPacketSize pins txPacket at 48 B: the heap's sequence must stay in
// the padding after the two flags.
func TestTxPacketSize(t *testing.T) {
	if got := unsafe.Sizeof(txPacket{}); got != 48 {
		t.Fatalf("txPacket is %d B, want 48", got)
	}
}

// TestPendingSlotSize pins pendingSlot at 80 B: the ack deadline fits
// because retries and queued are int32.
func TestPendingSlotSize(t *testing.T) {
	if got := unsafe.Sizeof(pendingSlot{}); got != 80 {
		t.Fatalf("pendingSlot is %d B, want 80", got)
	}
}

// BenchmarkEngineQueue holds an engine's queue at a fixed depth; each op
// pushes one packet and serves one. The responder's pushes are ready at a
// clock that advances one tick per op plus a jitter of up to 64 ticks,
// so most land near the heap's bottom and some sift up, as ACKs arriving
// in time order with DMA and jitter delays do. Its ns/op grows with the
// heap's height, log2 of the depth; the scan variants, the reference the
// heap replaced, grow linearly.
func BenchmarkEngineQueue(b *testing.B) {
	for _, bc := range []struct {
		kind  string
		depth int
	}{
		{"responder", 1}, {"responder", 64}, {"responder", 512}, {"responder", 2048},
		{"data", 256},
		{"responder-scan", 64}, {"responder-scan", 512}, {"responder-scan", 2048},
	} {
		b.Run(fmt.Sprintf("%s/depth=%d", bc.kind, bc.depth), func(b *testing.B) {
			src := rng.New(5)
			jitter := make([]units.Duration, 4096)
			for i := range jitter {
				jitter[i] = units.Duration(src.Intn(64))
			}
			var clock units.Time
			var k int
			next := func(tx *txPacket) *txPacket {
				clock++
				tx.readyAt = clock.Add(jitter[k%len(jitter)])
				k++
				return tx
			}
			if bc.kind == "responder-scan" {
				q := refQueue{reorder: true}
				for i := 0; i < bc.depth; i++ {
					q.queue = append(q.queue, next(&txPacket{}))
				}
				b.ReportAllocs()
				for b.Loop() {
					idx := q.pickIndex()
					tx := q.queue[idx]
					q.remove(idx)
					q.queue = append(q.queue, next(tx))
				}
				return
			}
			e := newEngine(nil, "bench")
			e.reorder = bc.kind == "responder"
			for i := 0; i < bc.depth; i++ {
				e.push(next(&txPacket{}))
			}
			b.ReportAllocs()
			for b.Loop() {
				tx := e.head()
				e.pop()
				e.push(next(tx))
			}
		})
	}
}
