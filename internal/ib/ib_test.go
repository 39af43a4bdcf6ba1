package ib

import (
	"testing"
	"testing/quick"

	"repro/internal/units"
)

func TestVerbStrings(t *testing.T) {
	cases := map[Verb]string{
		VerbSend:  "SEND",
		VerbRecv:  "RECV",
		VerbWrite: "WRITE",
		VerbRead:  "READ",
		Verb(99):  "Verb(99)",
	}
	for v, want := range cases {
		if v.String() != want {
			t.Errorf("%d.String() = %q, want %q", int(v), v.String(), want)
		}
	}
}

func TestOneSided(t *testing.T) {
	if VerbSend.OneSided() || VerbRecv.OneSided() {
		t.Error("two-sided verbs misclassified")
	}
	if !VerbWrite.OneSided() || !VerbRead.OneSided() {
		t.Error("one-sided verbs misclassified")
	}
}

func TestTransportSupports(t *testing.T) {
	// Paper §II-B: UD provides only two-sided verbs; RC provides both.
	if !UD.Supports(VerbSend) || !UD.Supports(VerbRecv) {
		t.Error("UD must support two-sided verbs")
	}
	if UD.Supports(VerbWrite) || UD.Supports(VerbRead) {
		t.Error("UD must not support one-sided verbs")
	}
	for _, v := range []Verb{VerbSend, VerbRecv, VerbWrite, VerbRead} {
		if !RC.Supports(v) {
			t.Errorf("RC must support %v", v)
		}
	}
	if RC.String() != "RC" || UD.String() != "UD" {
		t.Error("transport strings wrong")
	}
}

func TestWireSize(t *testing.T) {
	data := &Packet{Kind: KindData, Payload: 64}
	if data.WireSize() != 64+MaxHeaderBytes {
		t.Errorf("data wire size = %d", data.WireSize())
	}
	ack := &Packet{Kind: KindAck}
	if ack.WireSize() != AckBytes {
		t.Errorf("ack wire size = %d", ack.WireSize())
	}
	rreq := &Packet{Kind: KindReadRequest, Payload: 4096}
	if rreq.WireSize() != MaxHeaderBytes {
		t.Errorf("read request should not carry payload on the wire: %d", rreq.WireSize())
	}
	rrsp := &Packet{Kind: KindReadResponse, Payload: 4096}
	if rrsp.WireSize() != 4096+MaxHeaderBytes {
		t.Errorf("read response wire size = %d", rrsp.WireSize())
	}
}

func TestHeaderOverheadMatchesPaper(t *testing.T) {
	// Paper §VI-A: for a 64 B message less than 56% of the frame is
	// payload because headers are up to 52 B.
	p := &Packet{Kind: KindData, Payload: 64}
	frac := float64(p.Payload) / float64(p.WireSize())
	if frac >= 0.56 {
		t.Errorf("payload fraction %.2f, paper says < 0.56", frac)
	}
}

func TestSegmentExact(t *testing.T) {
	segs := Segment(4096, DefaultMTU)
	if len(segs) != 1 || segs[0] != 4096 {
		t.Fatalf("Segment(4096) = %v", segs)
	}
}

func TestSegmentSplit(t *testing.T) {
	segs := Segment(10000, 4096)
	want := []units.ByteSize{4096, 4096, 1808}
	if len(segs) != len(want) {
		t.Fatalf("Segment(10000) = %v", segs)
	}
	for i := range want {
		if segs[i] != want[i] {
			t.Fatalf("Segment(10000) = %v, want %v", segs, want)
		}
	}
}

func TestSegmentZero(t *testing.T) {
	segs := Segment(0, 4096)
	if len(segs) != 1 || segs[0] != 0 {
		t.Fatalf("Segment(0) = %v", segs)
	}
}

func TestSegmentPanicsOnBadMTU(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Segment(100, 0)
}

// Property: segmentation conserves bytes and respects the MTU, and only the
// last segment may be short.
func TestPropertySegmentation(t *testing.T) {
	f := func(payload uint32, mtuRaw uint16) bool {
		mtu := units.ByteSize(mtuRaw%8192 + 1)
		p := units.ByteSize(payload % (1 << 20))
		segs := Segment(p, mtu)
		var sum units.ByteSize
		for i, s := range segs {
			if s > mtu {
				return false
			}
			if i < len(segs)-1 && s != mtu {
				return false
			}
			sum += s
		}
		if p <= 0 {
			return len(segs) == 1 && segs[0] == 0
		}
		return sum == p
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestPacketString(t *testing.T) {
	p := &Packet{Kind: KindData, Verb: VerbSend, Transport: RC, SrcNode: 1, DestNode: 2, MsgID: 7, Payload: 64, SL: 1, VL: 1}
	if p.String() == "" {
		t.Fatal("empty packet string")
	}
	for _, k := range []PacketKind{KindData, KindAck, KindReadRequest, KindReadResponse, PacketKind(42)} {
		if k.String() == "" {
			t.Fatal("empty kind string")
		}
	}
}
