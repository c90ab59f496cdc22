// Package netem is the packet-level network substrate: packets and
// flows (gopacket-inspired hashable endpoints), rate/delay links with
// pluggable queues, drop-tail FIFOs, nodes with static routing and
// transport demultiplexing, and queue/link monitors.
//
// It stands in for the paper's physical testbed hardware (NetFPGA
// reference routers, Cisco switches/routers, GigE and OC3 links): the
// paper's results are driven by queueing and drop dynamics at a single
// drop-tail bottleneck, which this package reproduces exactly.
package netem

import (
	"fmt"

	"bufferqoe/internal/sim"
)

// Protocol identifies the transport protocol of a packet.
type Protocol uint8

// Transport protocols used in the study.
const (
	ProtoTCP Protocol = iota + 1
	ProtoUDP
)

func (p Protocol) String() string {
	switch p {
	case ProtoTCP:
		return "TCP"
	case ProtoUDP:
		return "UDP"
	default:
		return fmt.Sprintf("Protocol(%d)", uint8(p))
	}
}

// Header sizes in bytes. The models account for IP and transport
// headers explicitly so that on-wire sizes (and therefore queueing
// delays) match full-sized 1500-byte packets as in the paper.
const (
	MTU       = 1500 // Ethernet payload budget (IP + transport + data)
	IPHeader  = 20
	TCPHeader = 20
	UDPHeader = 8
	RTPHeader = 12
)

// NodeID identifies a node in a Network.
type NodeID int32

// Addr is a transport endpoint: node plus port. It is hashable and
// usable as a map key.
type Addr struct {
	Node NodeID
	Port uint16
}

func (a Addr) String() string { return fmt.Sprintf("n%d:%d", a.Node, a.Port) }

// Flow identifies a unidirectional transport flow (the gopacket
// Flow/Endpoint idea). Flows are hashable map keys, and Reverse gives
// the other direction of the same conversation.
type Flow struct {
	Proto    Protocol
	Src, Dst Addr
}

// Reverse returns the opposite direction of the flow.
func (f Flow) Reverse() Flow {
	return Flow{Proto: f.Proto, Src: f.Dst, Dst: f.Src}
}

func (f Flow) String() string {
	return fmt.Sprintf("%s %s>%s", f.Proto, f.Src, f.Dst)
}

// Packet is one IP datagram in flight. Size is the full on-wire size
// including IP and transport headers. Payload carries the
// protocol-specific content (e.g. *tcp.Segment); it is never inspected
// by the network layer.
//
// Ownership: packets obtained from Network.NewPacket belong to exactly
// one holder at a time — the sending endpoint until Send, then the
// link/queue/delivery pipeline, then the consuming endpoint. Whoever
// consumes a packet (the network on local delivery, a queue on a drop)
// calls Release to return it to the per-network free-list; holding a
// *Packet past its Release is a use-after-free class bug. Whoever
// drops the packet drops the payload: Release hands a pooled payload
// (PayloadReleaser) back too, so a queue reject or an AQM drop strands
// nothing. Packets built with a composite literal have no pool and
// Release is a no-op, so tests and external constructions stay safe.
type Packet struct {
	ID   uint64
	Flow Flow
	Size int

	// Payload is interpreted by the receiving transport endpoint.
	Payload any

	// Created is when the sending host handed the packet to its NIC.
	Created sim.Time
	// Enqueued is stamped by the queue currently holding the packet;
	// AQMs (CoDel) and monitors derive sojourn time from it.
	Enqueued sim.Time

	// ECT marks the packet ECN-capable (the sender negotiated ECN,
	// RFC 3168 ECT(0) codepoint). AQM queues configured for ECN mark
	// such packets instead of dropping them.
	ECT bool
	// CE is the Congestion Experienced mark set by an ECN-enabled
	// queue in place of a drop. Receivers echo it back to the sender.
	CE bool

	// pool is the owning network's free-list for pooled packets; nil
	// for packets constructed directly.
	pool *Network
}

// PayloadReleaser is implemented by payloads that come from a pool of
// their own (*tcp.Segment). The packet owns its payload for as long as
// it owns itself; Release returns both.
type PayloadReleaser interface {
	ReleasePayload()
}

// Release returns a pooled packet to its network's free-list, handing
// a PayloadReleaser payload back to its own pool first. It is
// idempotent (the first call clears the pool link) and a no-op for
// packets not obtained from Network.NewPacket.
//
//qoe:hotpath
func (p *Packet) Release() {
	nw := p.pool
	if nw == nil {
		return
	}
	p.pool = nil
	if r, ok := p.Payload.(PayloadReleaser); ok {
		p.Payload = nil
		r.ReleasePayload()
		nw.payloadRecycles++
	}
	nw.pktFree = append(nw.pktFree, p)
	nw.recycles++
}
