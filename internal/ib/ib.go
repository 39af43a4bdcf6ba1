// Package ib defines the InfiniBand protocol vocabulary shared by the RNIC,
// link and switch models: packets and their headers, verbs and transports,
// service levels (SL), virtual lanes (VL), the SL-to-VL mapping table and
// the VL arbitration table (paper §II).
package ib

import (
	"fmt"

	"repro/internal/units"
)

// Verb is an RDMA operation type (paper §II-A).
type Verb int

// RDMA verbs.
const (
	VerbSend Verb = iota // two-sided SEND
	VerbRecv             // two-sided RECV (pre-posted at the responder)
	VerbWrite
	VerbRead
)

func (v Verb) String() string {
	switch v {
	case VerbSend:
		return "SEND"
	case VerbRecv:
		return "RECV"
	case VerbWrite:
		return "WRITE"
	case VerbRead:
		return "READ"
	default:
		return fmt.Sprintf("Verb(%d)", int(v))
	}
}

// OneSided reports whether the verb involves only the requesting end-point.
func (v Verb) OneSided() bool { return v == VerbWrite || v == VerbRead }

// Transport is an RDMA transport type (paper §II-B).
type Transport int

// RDMA transports.
const (
	// RC is the reliable connected transport: hardware ACKs, supports all
	// verbs. RPerf depends on RC because the remote RNIC acknowledges a
	// SEND without host involvement.
	RC Transport = iota
	// UD is the unreliable datagram transport: no ACKs, two-sided verbs
	// only.
	UD
)

func (t Transport) String() string {
	if t == RC {
		return "RC"
	}
	return "UD"
}

// Supports reports whether the transport can carry the verb.
func (t Transport) Supports(v Verb) bool {
	if t == UD {
		return v == VerbSend || v == VerbRecv
	}
	return true
}

// SL is an InfiniBand service level, the application-visible priority tag
// carried in packet headers (paper §II-D). Values 0-15.
type SL uint8

// MaxSL is the largest valid service level.
const MaxSL SL = 15

// VL is a virtual lane: an independently buffered and flow-controlled
// logical channel on a physical link. The IB spec allows 2-16 data VLs; the
// paper's SX6012 exposes 9.
type VL uint8

// MaxVL is the largest VL index the model supports (the SX6012's 9 VLs are
// indices 0-8).
const MaxVL VL = 8

// NumVLs is the number of data VLs modeled per port.
const NumVLs = int(MaxVL) + 1

// Header and frame constants.
const (
	// MaxHeaderBytes is the worst-case IB header the paper quotes:
	// LRH(8) + GRH(40) + BTH(12) would exceed it, but the paper's figure
	// for total header overhead is "up to 52B" (§VI-A) — LRH + GRH + BTH
	// with CRCs folded in. We charge this on every data packet, matching
	// the paper's bandwidth accounting.
	MaxHeaderBytes units.ByteSize = 52
	// AckBytes is the wire size of an RC acknowledgment (LRH + BTH + AETH
	// + CRCs).
	AckBytes units.ByteSize = 30
	// DefaultMTU is the path MTU used throughout the paper's experiments:
	// the largest payload evaluated is 4096 B and is carried in a single
	// packet.
	DefaultMTU units.ByteSize = 4096
)

// PacketKind distinguishes wire packet roles.
type PacketKind int

// Packet kinds.
const (
	KindData PacketKind = iota
	KindAck
	KindReadRequest  // READ request carries no payload
	KindReadResponse // READ response carries the payload
)

func (k PacketKind) String() string {
	switch k {
	case KindData:
		return "DATA"
	case KindAck:
		return "ACK"
	case KindReadRequest:
		return "RD_REQ"
	case KindReadResponse:
		return "RD_RSP"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// NodeID identifies an end-point (host/RNIC pair) in the fabric. Switch
// ports are addressed separately by the topology layer.
type NodeID int

// Packet is the unit that traverses links and switches. Packets are created
// by RNICs and never mutated in flight; switches route them by DestNode.
type Packet struct {
	Kind      PacketKind
	Verb      Verb
	Transport Transport
	SrcNode   NodeID
	DestNode  NodeID
	QP        int // destination queue pair number
	MsgID     uint64
	SeqInMsg  int  // packet index within a segmented message
	LastInMsg bool // true on the final segment
	// PSN is the RC packet sequence number, contiguous per (SrcNode, QP)
	// stream and stable across retransmissions. It is assigned only when
	// the sending RNIC has reliability enabled (fault runs); otherwise 0.
	PSN     uint64
	Payload units.ByteSize
	SL      SL
	// OpRef identifies the requester's pending-operation slot (-1 = none).
	// Responders echo it on ACKs and READ responses, so the requester
	// retires operations by direct slab index instead of a map lookup —
	// a map keyed by the monotonically increasing MsgID rehashes
	// periodically under insert/delete churn, which shows up as steady-state
	// allocation. MsgID still travels alongside and is verified on retire.
	OpRef int32
	// VL is assigned per hop from the SL2VL table; it is mutable routing
	// state, unlike the header fields above.
	VL VL
	// ReadLength is the number of bytes a READ request asks for; it
	// carries no payload on the wire.
	ReadLength units.ByteSize
}

// WireSize is the number of bytes the packet occupies on a link, including
// headers.
func (p *Packet) WireSize() units.ByteSize {
	switch p.Kind {
	case KindData:
		return p.Payload + MaxHeaderBytes
	case KindAck:
		return AckBytes
	case KindReadRequest:
		return MaxHeaderBytes
	case KindReadResponse:
		return p.Payload + MaxHeaderBytes
	default:
		return MaxHeaderBytes
	}
}

func (p *Packet) String() string {
	return fmt.Sprintf("%s %s/%s %d->%d msg=%d payload=%d sl=%d vl=%d",
		p.Kind, p.Verb, p.Transport, p.SrcNode, p.DestNode, p.MsgID, p.Payload, p.SL, p.VL)
}

// Segment splits a message payload into MTU-sized packet payloads. A zero
// payload still produces one packet (e.g., a 0-byte SEND).
func Segment(payload, mtu units.ByteSize) []units.ByteSize {
	return SegmentAppend(nil, payload, mtu)
}

// SegmentAppend is Segment with caller-provided storage: segments are
// appended to dst (normally a reused scratch sliced to [:0]), so the RNIC's
// per-message hot path segments without allocating once the scratch has
// grown to the steady-state message size.
func SegmentAppend(dst []units.ByteSize, payload, mtu units.ByteSize) []units.ByteSize {
	if mtu <= 0 {
		panic("ib: non-positive MTU")
	}
	if payload <= 0 {
		return append(dst, 0)
	}
	for payload > 0 {
		chunk := payload
		if chunk > mtu {
			chunk = mtu
		}
		dst = append(dst, chunk)
		payload -= chunk
	}
	return dst
}
