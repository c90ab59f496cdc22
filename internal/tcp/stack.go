package tcp

import (
	"time"

	"bufferqoe/internal/netem"
	"bufferqoe/internal/sim"
)

// Config holds the tunables of the TCP model. Zero fields are filled
// with defaults by Defaults.
type Config struct {
	// MSS is the maximum segment size in bytes (payload); with 40
	// bytes of headers the default gives full-sized 1500-byte packets
	// as in the paper.
	MSS int
	// RcvWnd is the advertised receive window in bytes. The paper
	// verified all hosts used window scaling; a multi-megabyte window
	// lets single flows fill even bloated buffers.
	RcvWnd int64
	// InitialWindow is the initial congestion window in segments
	// (paper-era Linux used 3; the IW10 debate postdates the testbed).
	InitialWindow int
	// MinRTO / MaxRTO clamp the retransmission timeout.
	MinRTO, MaxRTO time.Duration
	// InitialRTO applies before any RTT sample (RFC 6298: 1 s).
	InitialRTO time.Duration
	// DelAckDelay is the delayed-ACK timer.
	DelAckDelay time.Duration
	// DupAckThreshold triggers fast retransmit (3).
	DupAckThreshold int
	// MaxSynRetries bounds connection establishment attempts.
	MaxSynRetries int
	// MaxRetries bounds consecutive data retransmission timeouts
	// before the connection aborts.
	MaxRetries int
	// NewCC constructs the congestion control algorithm per
	// connection; nil means Reno.
	NewCC func() CongestionControl
	// SACK enables RFC 2018-style selective acknowledgments: the
	// receiver reports out-of-order blocks and the sender retransmits
	// only the holes, which keeps recovery from collapsing into
	// timeouts after burst losses. Disabled by default (the base
	// model is NewReno); the abl-sack experiment quantifies the
	// difference.
	SACK bool
	// ECN enables RFC 3168 explicit congestion notification: data
	// packets are sent ECN-capable, AQM queues configured for ECN mark
	// them instead of dropping, and the sender reduces its window on
	// the echoed mark without losing a packet. Both endpoints' stacks
	// must enable it (SYN-time negotiation). Disabled by default; the
	// abl-ecn experiment quantifies the effect.
	ECN bool
}

// Defaults returns cfg with zero fields replaced by the model
// defaults.
func Defaults(cfg Config) Config {
	if cfg.MSS == 0 {
		cfg.MSS = 1460
	}
	if cfg.RcvWnd == 0 {
		cfg.RcvWnd = 4 << 20
	}
	if cfg.InitialWindow == 0 {
		cfg.InitialWindow = 3
	}
	if cfg.MinRTO == 0 {
		cfg.MinRTO = 200 * time.Millisecond
	}
	if cfg.MaxRTO == 0 {
		cfg.MaxRTO = 60 * time.Second
	}
	if cfg.InitialRTO == 0 {
		cfg.InitialRTO = time.Second
	}
	if cfg.DelAckDelay == 0 {
		cfg.DelAckDelay = 40 * time.Millisecond
	}
	if cfg.DupAckThreshold == 0 {
		cfg.DupAckThreshold = 3
	}
	if cfg.MaxSynRetries == 0 {
		cfg.MaxSynRetries = 6
	}
	if cfg.MaxRetries == 0 {
		cfg.MaxRetries = 8
	}
	if cfg.NewCC == nil {
		cfg.NewCC = NewReno
	}
	return cfg
}

// Listener accepts inbound connections on a port.
type Listener struct {
	stack  *Stack
	port   uint16
	accept func(*Conn)
}

// Stack is the per-node TCP instance: it owns the node's connections
// and listeners and demultiplexes inbound segments by flow.
type Stack struct {
	node *netem.Node
	eng  *sim.Engine
	cfg  Config

	conns     map[uint64]*Conn // by connKey of the local->remote flow
	listeners map[uint16]*Listener

	// Conn reuse (opt-in, see SetConnReuse): closed connections park
	// here and newConn revives them, keeping their interval backing
	// arrays warm. The list survives Reset — a carcass reuse makes the
	// next cell's flows allocation-free from the first connection.
	reuse bool
	free  []*Conn

	// segsSent counts the segments this stack's connections drew from
	// the pool and put on the wire (see SegmentsSent).
	segsSent uint64
}

// NewStack attaches a TCP stack to a node.
func NewStack(node *netem.Node, cfg Config) *Stack {
	return &Stack{
		node:      node,
		eng:       node.Engine(),
		cfg:       Defaults(cfg),
		conns:     make(map[uint64]*Conn),
		listeners: make(map[uint16]*Listener),
	}
}

// Reset re-initializes the stack for carcass reuse with the next run's
// configuration, leaving it exactly as NewStack would: no connections,
// no listeners. The node's port bindings are cleared separately by
// Node.Reset; dropped Conns carry their own timers, which the engine's
// Reset already unhooked.
func (s *Stack) Reset(cfg Config) {
	s.cfg = Defaults(cfg)
	clear(s.conns)
	clear(s.listeners)
	s.segsSent = 0
}

// SegmentsSent reports how many segments the stack has emitted, every
// connection past and present included. Each was drawn from the
// segment pool and rides one packet, so summed over a network's stacks
// it is the "obtained" side of the segment pool's balance, against
// netem.Network.PayloadRecycles.
func (s *Stack) SegmentsSent() uint64 { return s.segsSent }

// Node returns the node this stack is bound to.
func (s *Stack) Node() *netem.Node { return s.node }

// SetConnReuse opts the stack into connection memory reuse: a fully
// closed Conn is returned to a stack-local free list right after its
// OnClose callback and revived by the next Dial or accepted SYN,
// with identical semantics to a fresh allocation. Only enable it
// when no caller retains a *Conn past its OnClose — background
// traffic qualifies; applications that inspect finished connections
// (and tests) must leave it off.
func (s *Stack) SetConnReuse(on bool) { s.reuse = on }

// release parks a closed connection for reuse; no-op unless the
// stack opted in. finish has already stopped both owned timers (an
// eager heap removal), so nothing in the engine references c.
func (s *Stack) release(c *Conn) {
	if !s.reuse {
		return
	}
	s.free = append(s.free, c)
}

// Listen starts accepting connections on port; accept is invoked for
// each new connection before its handshake completes (register
// callbacks there).
func (s *Stack) Listen(port uint16, accept func(*Conn)) *Listener {
	l := &Listener{stack: s, port: port, accept: accept}
	s.listeners[port] = l
	s.node.Bind(netem.ProtoTCP, port, netem.HandlerFunc(func(p *netem.Packet) {
		s.dispatch(p)
	}))
	return l
}

// Dial opens a connection to the remote address using the stack
// config; variant DialCC overrides congestion control.
func (s *Stack) Dial(remote netem.Addr) *Conn {
	return s.DialCC(remote, nil)
}

// DialCC opens a connection with a specific congestion control
// algorithm (nil = stack default).
func (s *Stack) DialCC(remote netem.Addr, cc CongestionControl) *Conn {
	port := s.node.AllocPort(netem.ProtoTCP)
	flow := netem.Flow{
		Proto: netem.ProtoTCP,
		Src:   s.node.Addr(port),
		Dst:   remote,
	}
	if cc == nil {
		cc = s.cfg.NewCC()
	}
	c := s.newConn(flow, cc)
	c.state = StateSynSent
	s.node.Bind(netem.ProtoTCP, port, netem.HandlerFunc(func(p *netem.Packet) {
		s.dispatch(p)
	}))
	s.conns[connKey(flow)] = c
	c.sendSyn(false)
	return c
}

func (s *Stack) newConn(flow netem.Flow, cc CongestionControl) *Conn {
	var c *Conn
	if n := len(s.free); n > 0 {
		// Revive a parked connection: zero everything but keep the
		// interval-set backing arrays, which reach steady capacity
		// after a few flows and then never allocate again.
		c = s.free[n-1]
		s.free[n-1] = nil
		s.free = s.free[:n-1]
		sacked, ooo := c.sacked, c.ooo
		sacked.clear()
		ooo.clear()
		*c = Conn{sacked: sacked, ooo: ooo}
	} else {
		c = &Conn{}
	}
	c.stack, c.eng, c.flow, c.cfg, c.cc = s, s.eng, flow, s.cfg, cc
	c.rto, c.rwndPeer, c.finSeqPeer = s.cfg.InitialRTO, s.cfg.RcvWnd, -1
	c.rtoF.c, c.delackF.c, c.paceF.c = c, c, c
	c.pacer, _ = cc.(Pacer)
	s.eng.InitTimer(&c.rtoTimer, &c.rtoF)
	s.eng.InitTimer(&c.delackTimer, &c.delackF)
	s.eng.InitTimer(&c.paceTimer, &c.paceF)
	return c
}

// connKey packs what tells a stack's connections apart — the remote
// node, the remote port and the local port of a local->remote flow —
// into one word. The local node and the protocol are the stack's own.
func connKey(f netem.Flow) uint64 {
	return uint64(uint32(f.Dst.Node))<<32 | uint64(f.Dst.Port)<<16 | uint64(f.Src.Port)
}

// dispatch routes an inbound packet to its connection, creating
// server-side connections for SYNs to listening ports. The segment
// belongs to the packet, which the node releases (payload included)
// once handling returns, so connection code must copy anything it
// wants to keep (it does — SACK blocks and timestamps are copied into
// connection state).
func (s *Stack) dispatch(p *netem.Packet) {
	seg, ok := p.Payload.(*Segment)
	if !ok {
		return
	}
	// The ECN CE mark lives on the packet ("IP header"); surface it to
	// the transport alongside the segment.
	seg.CE = p.CE
	// The local->remote flow is the reverse of the packet's flow.
	flow := p.Flow.Reverse()
	if c, ok := s.conns[connKey(flow)]; ok {
		c.handleSegment(seg)
		return
	}
	l, ok := s.listeners[p.Flow.Dst.Port]
	if !ok || !seg.SYN || seg.ACK {
		return // no listener or not a connection attempt
	}
	c := s.newConn(flow, s.cfg.NewCC())
	c.state = StateSynReceived
	c.tsRecent = seg.TSval
	c.ecnOK = s.cfg.ECN && seg.ECNSetup
	s.conns[connKey(flow)] = c
	if l.accept != nil {
		l.accept(c)
	}
	c.sendSyn(true)
}

// remove forgets a closed connection and releases ephemeral ports.
func (s *Stack) remove(c *Conn) {
	delete(s.conns, connKey(c.flow))
	port := c.flow.Src.Port
	if _, listening := s.listeners[port]; !listening {
		s.node.Unbind(netem.ProtoTCP, port)
	}
}

// ConnCount returns the number of live connections (for tests and
// workload monitoring).
func (s *Stack) ConnCount() int { return len(s.conns) }
