package topology

import (
	"testing"

	"repro/internal/ib"
	"repro/internal/model"
	"repro/internal/units"
)

// retxPosts is one sender's share of a retransmission case: count RC
// operations of verb, each size bytes long, posted on one QP to node 6.
type retxPosts struct {
	src   int
	verb  ib.Verb
	size  units.ByteSize
	count int
}

// TestFaultRetransmitResendsPostedPackets pins what go-back-N re-sends. On
// the star with reliability on (20 µs ack timeout, 7 retries) and 5% loss
// on one switch egress, the switch observes every copy of every request
// packet it forwards (SEND and WRITE segments, READ requests). Each copy
// of a (source, QP, MsgID, SeqInMsg) must carry the first copy's header in
// every field but the VL, which is set per hop. Every verb posted must
// have been re-sent, and every operation must complete exactly once with
// no QP error. Every READ must deliver exactly the bytes it asked for to
// the requester's observers: a response segment lost, or served twice
// after a re-read, must not show.
func TestFaultRetransmitResendsPostedPackets(t *testing.T) {
	const dst = 6
	var threeVerbs []retxPosts
	for src := 0; src < 3; src++ {
		threeVerbs = append(threeVerbs,
			retxPosts{src, ib.VerbSend, 10 * units.KB, 40},
			retxPosts{src, ib.VerbWrite, 10 * units.KB, 40},
			retxPosts{src, ib.VerbRead, 4 * units.KB, 40})
	}
	for _, tc := range []struct {
		name  string
		lossy string // the link that drops 5% of its packets
		posts []retxPosts
	}{
		// SEND and WRITE segments of three MTUs, and READ requests, lost
		// on their way to node 6.
		{"requests lost", "tor.p6", threeVerbs},
		// READ responses of three segments lost on their way back to node
		// 0: the ack timeout re-reads, and node 6 serves every segment
		// again.
		{"read responses lost", "tor.p0", []retxPosts{{0, ib.VerbRead, 10 * units.KB, 200}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := Star(model.HWTestbed(), 7, 1)
			c.EnableReliability(20*units.Microsecond, 7)
			if err := c.SetLinkDrop(tc.lossy, 0.05); err != nil {
				t.Fatal(err)
			}
			type segKey struct {
				src ib.NodeID
				qp  int
				msg uint64
				seq int
			}
			first := map[segKey]ib.Packet{}
			resent := map[ib.Verb]int{}
			differ := 0
			c.Switches[0].OnForward = func(pkt *ib.Packet, _, _ units.Time) {
				if pkt.Kind != ib.KindData && pkt.Kind != ib.KindReadRequest {
					return
				}
				h := *pkt
				h.VL = 0
				k := segKey{h.SrcNode, h.QP, h.MsgID, h.SeqInMsg}
				f, seen := first[k]
				if !seen {
					first[k] = h
					return
				}
				resent[h.Verb]++
				if h != f {
					if differ == 0 {
						t.Errorf("re-sent copy %+v differs from the first copy %+v", h, f)
					}
					differ++
				}
			}

			// Per op, in post order: its completions and, for a READ, its
			// length, the response bytes its requester's observers saw, and
			// how many of them had arrived by its CQE.
			var done []int
			var asked, got, atCQE []units.ByteSize
			type readKey struct {
				src ib.NodeID
				msg uint64
			}
			opOf := map[readKey]int{}
			for _, nic := range c.NICs {
				nic.AddDeliverObserver(func(pkt *ib.Packet, _ units.Time) {
					if op, ok := opOf[readKey{pkt.DestNode, pkt.MsgID}]; ok && pkt.Kind == ib.KindReadResponse {
						got[op] += pkt.Payload
					}
				})
			}
			verbs := map[ib.Verb]int{}
			for _, p := range tc.posts {
				nic := c.NIC(p.src)
				qp := nic.CreateQP(ib.RC, dst, 0)
				verbs[p.verb] += p.count
				for k := 0; k < p.count; k++ {
					op := len(done)
					done = append(done, 0)
					asked, got, atCQE = append(asked, 0), append(got, 0), append(atCQE, 0)
					msg := nic.PostSend(qp, p.verb, p.size, func(units.Time) {
						done[op]++
						atCQE[op] = got[op]
					})
					if p.verb == ib.VerbRead {
						asked[op] = p.size
						opOf[readKey{ib.NodeID(p.src), msg}] = op
					}
				}
			}
			c.RunUntil(units.Time(0).Add(20 * units.Millisecond))

			if differ > 0 {
				t.Errorf("%d re-sent copies differ from their first copy", differ)
			}
			for v := range verbs {
				if resent[v] == 0 {
					t.Errorf("no %v packet was re-sent: the retransmission path went unexercised", v)
				}
			}
			for op, n := range done {
				if n != 1 {
					t.Errorf("op %d completed %d times, want once", op, n)
				}
			}
			if rel := c.RelTotals(); rel.QPErrors != 0 {
				t.Errorf("%d QP errors: an op exhausted its retries", rel.QPErrors)
			}
			short, over := 0, 0
			for op, n := range asked {
				if atCQE[op] < n {
					short++
				}
				if got[op] > n {
					over++
				}
			}
			if short+over > 0 {
				t.Errorf("of %d READs, %d completed with fewer bytes than asked and %d delivered more", verbs[ib.VerbRead], short, over)
			}
			t.Logf("re-sent copies: %d SEND, %d WRITE, %d READ; %d ops", resent[ib.VerbSend], resent[ib.VerbWrite], resent[ib.VerbRead], len(done))
		})
	}
}
