package ib

import "testing"

// A recycled packet must be indistinguishable from a fresh one: PostSend
// only writes the fields it uses, so stale state (ReadLength, VL, OpRef)
// leaking through the pool would corrupt later operations.
func TestPacketPoolGetReturnsZeroedPacket(t *testing.T) {
	var p PacketPool
	pkt := p.Get()
	pkt.Kind = KindData
	pkt.Payload = 4096
	pkt.ReadLength = 999
	pkt.VL = 3
	pkt.OpRef = 17
	p.Put(pkt)
	got := p.Get()
	if got != pkt {
		t.Fatalf("pool did not recycle: got %p want %p", got, pkt)
	}
	if *got != (Packet{}) {
		t.Fatalf("recycled packet not zeroed: %+v", *got)
	}
}

func TestPacketPoolCapBoundsFreeList(t *testing.T) {
	var p PacketPool
	pkts := make([]*Packet, poolCap+10)
	for i := range pkts {
		pkts[i] = &Packet{}
	}
	for _, pkt := range pkts {
		p.Put(pkt)
	}
	if got := p.FreeCount(); got != poolCap {
		t.Fatalf("free list holds %d packets, want cap %d", got, poolCap)
	}
}

func TestPacketPoolPutNilIsNoop(t *testing.T) {
	var p PacketPool
	p.Put(nil)
	if p.FreeCount() != 0 {
		t.Fatal("nil Put reached the free list")
	}
}
