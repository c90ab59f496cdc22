package netem

import (
	"fmt"
	"time"

	"bufferqoe/internal/sim"
)

// Handler consumes packets addressed to a bound transport port.
type Handler interface {
	HandlePacket(p *Packet)
}

// HandlerFunc adapts a function to the Handler interface.
type HandlerFunc func(p *Packet)

// HandlePacket implements Handler.
func (f HandlerFunc) HandlePacket(p *Packet) { f(p) }

// Egress is anything a node can route packets into: a wired Link, or an
// alternative last-hop implementation such as the 802.11 MAC link. Send
// reports whether the first hop accepted the packet (false = dropped by
// the queue, which releases the packet).
type Egress interface {
	Send(p *Packet) bool
}

// portKey packs a protocol/port pair into one word for the handler
// map, so a delivery hashes a uint32 rather than a padded struct.
func portKey(proto Protocol, port uint16) uint32 { return uint32(proto)<<16 | uint32(port) }

// Node is a host, switch, or router. Hosts bind transport handlers to
// ports; switches and routers only forward. Routing is static: an
// explicit per-destination table plus a default route, which is all a
// dumbbell topology needs.
type Node struct {
	ID   NodeID
	Name string

	eng      *sim.Engine
	net      *Network
	routes   []Egress // by destination NodeID; nil means the default route
	defRoute Egress
	handlers map[uint32]Handler // by portKey
	nextPort uint16
	// Forwarded counts transit packets, Delivered local deliveries,
	// Undeliverable packets with no route or handler.
	Forwarded     uint64
	Delivered     uint64
	Undeliverable uint64
}

// Reset returns the node to its never-used state for carcass reuse:
// port bindings and counters are cleared, the ephemeral port allocator
// rewinds, and the static routing tables — a function of the topology,
// not of any run — are kept. Applications re-Bind their ports each
// run, so a reset node accepts the same bind sequence a fresh one
// would.
func (n *Node) Reset() {
	clear(n.handlers)
	n.nextPort = 0
	n.Forwarded, n.Delivered, n.Undeliverable = 0, 0, 0
}

// SetRoute installs a next-hop egress for a destination node.
func (n *Node) SetRoute(dst NodeID, l Egress) {
	if int(dst) >= len(n.routes) {
		n.routes = append(n.routes, make([]Egress, int(dst)+1-len(n.routes))...)
	}
	n.routes[dst] = l
}

// SetDefaultRoute installs the next-hop egress for all unmatched
// destinations.
func (n *Node) SetDefaultRoute(l Egress) { n.defRoute = l }

// Bind registers a handler for a protocol/port pair. It panics on
// double binds, which are always programming errors in the models.
func (n *Node) Bind(proto Protocol, port uint16, h Handler) {
	k := portKey(proto, port)
	if _, dup := n.handlers[k]; dup {
		panic(fmt.Sprintf("netem: %s: double bind %v port %d", n.Name, proto, port))
	}
	n.handlers[k] = h
}

// Unbind removes a port binding.
func (n *Node) Unbind(proto Protocol, port uint16) {
	delete(n.handlers, portKey(proto, port))
}

// AllocPort returns an unused ephemeral port for the protocol.
func (n *Node) AllocPort(proto Protocol) uint16 {
	for {
		n.nextPort++
		if n.nextPort < 10000 {
			n.nextPort = 10000
		}
		if _, used := n.handlers[portKey(proto, n.nextPort)]; !used {
			return n.nextPort
		}
	}
}

// Addr returns an Addr on this node with the given port.
func (n *Node) Addr(port uint16) Addr { return Addr{Node: n.ID, Port: port} }

// Engine returns the simulation engine the node is attached to.
func (n *Node) Engine() *sim.Engine { return n.eng }

// Network returns the network the node belongs to.
func (n *Node) Network() *Network { return n.net }

// Send originates a packet from this node, stamping creation time and
// routing it toward its destination. It reports whether the first hop
// accepted the packet.
func (n *Node) Send(p *Packet) bool {
	p.ID = n.net.nextPacketID()
	p.Created = n.eng.Now()
	return n.forward(p)
}

// Receive implements Receiver: deliver locally or forward. A locally
// consumed (or undeliverable) pooled packet is released back to the
// network free-list after the handler returns; handlers must copy what
// they need and not retain the *Packet.
func (n *Node) Receive(p *Packet) {
	if p.Flow.Dst.Node == n.ID {
		h, ok := n.handlers[portKey(p.Flow.Proto, p.Flow.Dst.Port)]
		if !ok {
			n.Undeliverable++
			p.Release()
			return
		}
		n.Delivered++
		h.HandlePacket(p)
		p.Release()
		return
	}
	n.Forwarded++
	n.forward(p)
}

func (n *Node) forward(p *Packet) bool {
	var l Egress
	if dst := uint(p.Flow.Dst.Node); dst < uint(len(n.routes)) {
		l = n.routes[dst]
	}
	if l == nil {
		l = n.defRoute
	}
	if l == nil {
		n.Undeliverable++
		p.Release()
		return false
	}
	return l.Send(p)
}

// Network owns the engine, nodes and links of one simulated testbed,
// plus the packet free-list: in steady state every datagram the models
// send reuses a released *Packet instead of allocating.
type Network struct {
	Engine *sim.Engine

	nodes    []*Node
	packetID uint64
	pktFree  []*Packet
	recycles uint64
	// payloadRecycles counts the pooled payloads Release handed back.
	payloadRecycles uint64
}

// PacketRecycles reports how many packets have been returned to the
// free-list over the network's lifetime — a pool-effectiveness signal
// for telemetry (recycles ≈ packets sent means steady state allocates
// nothing).
func (nw *Network) PacketRecycles() uint64 { return nw.recycles }

// PacketsSent reports how many packets nodes have originated. With
// PacketRecycles it states the pool-balance invariant: sent = recycled
// + still held by a queue, a transmitter or a delay line.
func (nw *Network) PacketsSent() uint64 { return nw.packetID }

// PayloadRecycles reports how many pooled payloads (TCP segments)
// released packets have handed back to their own pool.
func (nw *Network) PayloadRecycles() uint64 { return nw.payloadRecycles }

// NewPacket returns a zeroed packet from the network's free-list (or a
// fresh allocation when the list is empty). The caller fills it and
// hands it to Node.Send; see the Packet ownership comment for who
// releases it.
func (nw *Network) NewPacket() *Packet {
	if n := len(nw.pktFree); n > 0 {
		p := nw.pktFree[n-1]
		nw.pktFree[n-1] = nil
		nw.pktFree = nw.pktFree[:n-1]
		*p = Packet{pool: nw}
		return p
	}
	return &Packet{pool: nw}
}

// NewNetwork creates an empty network on the engine.
func NewNetwork(eng *sim.Engine) *Network {
	return &Network{Engine: eng}
}

// Reset rewinds the packet-ID counter and the recycle telemetry for
// carcass reuse, keeping the nodes and the packet free-list: recycled
// packets are fully zeroed on NewPacket, so a warm pool is
// behavior-identical to a cold one.
func (nw *Network) Reset() {
	nw.packetID = 0
	nw.recycles, nw.payloadRecycles = 0, 0
}

// NewNode adds a node with the given name.
func (nw *Network) NewNode(name string) *Node {
	n := &Node{
		ID:       NodeID(len(nw.nodes) + 1),
		Name:     name,
		eng:      nw.Engine,
		net:      nw,
		handlers: make(map[uint32]Handler),
	}
	nw.nodes = append(nw.nodes, n)
	return n
}

// Nodes returns all nodes in creation order.
func (nw *Network) Nodes() []*Node { return nw.nodes }

func (nw *Network) nextPacketID() uint64 {
	nw.packetID++
	return nw.packetID
}

// Connect builds a bidirectional connection between a and b with
// symmetric rate and delay and per-direction drop-tail queues of qlen
// packets. It returns the a->b and b->a links.
func (nw *Network) Connect(a, b *Node, rate float64, delay time.Duration, qlen int) (*Link, *Link) {
	ab := NewLink(nw.Engine, a.Name+"->"+b.Name, rate, delay, NewDropTail(qlen), b)
	ba := NewLink(nw.Engine, b.Name+"->"+a.Name, rate, delay, NewDropTail(qlen), a)
	a.SetRoute(b.ID, ab)
	b.SetRoute(a.ID, ba)
	return ab, ba
}
