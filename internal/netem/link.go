package netem

import (
	"time"

	"bufferqoe/internal/sim"
)

// Receiver consumes packets delivered by a link.
type Receiver interface {
	Receive(p *Packet)
}

// Link is a unidirectional transmission channel: packets wait in the
// queue, are serialized at Rate bits per second, then propagate for
// Delay before delivery. A Rate of 0 means infinite capacity (pure
// delay element — the NetPath delay boxes of the backbone testbed).
//
// The link is its own event handler: serialization completion is an
// owned timer dispatching to Fire, and propagation is a DelayLine (a
// constant delay delivers FIFO) — the link puts at most two entries
// on the engine's heap however many packets it has in flight, and the
// forwarding hot path schedules zero closures and allocates nothing in
// steady state.
type Link struct {
	Name  string
	Rate  float64       // bits per second; 0 = infinite
	Delay time.Duration // one-way propagation delay

	Queue Queue
	// Monitor observes transmitted packets. It is nil by default — the
	// per-packet fast path pays for instrumentation only on links an
	// experiment actually reads — and is attached with EnsureMonitor.
	Monitor *LinkMonitor

	// Tap, if non-nil, observes every packet the link transmits (the
	// tcpdump vantage point of the paper's trace analysis).
	Tap func(p *Packet, at sim.Time)

	eng     *sim.Engine
	busy    bool
	txTimer sim.Timer // owned: fires when the head packet finishes serializing
	txPkt   *Packet   // packet in service
	line    DelayLine // packets propagating toward the receiver
}

// NewLink creates a link feeding dst through queue. No LinkMonitor is
// attached; call EnsureMonitor on links whose throughput or
// utilization an experiment reads.
func NewLink(eng *sim.Engine, name string, rate float64, delay time.Duration, queue Queue, dst Receiver) *Link {
	l := &Link{
		Name:  name,
		Rate:  rate,
		Delay: delay,
		Queue: queue,
		eng:   eng,
	}
	eng.InitTimer(&l.txTimer, l)
	l.line.Init(eng, dst)
	return l
}

// EnsureMonitor attaches (or returns the existing) LinkMonitor, for
// the bottleneck links whose utilization the experiments measure.
func (l *Link) EnsureMonitor() *LinkMonitor {
	if l.Monitor == nil {
		l.Monitor = &LinkMonitor{Name: l.Name, carrier: l}
	}
	return l.Monitor
}

// AttachMonitor wires a caller-owned (typically scratch-pooled)
// monitor to the link, replacing any current one. The monitor should
// be Reset by the caller before reuse.
func (l *Link) AttachMonitor(m *LinkMonitor) *LinkMonitor {
	m.Attach(l.Name, l)
	l.Monitor = m
	return m
}

// NominalRate implements RatedCarrier.
func (l *Link) NominalRate() float64 { return l.Rate }

// Reset returns the link to its never-used state for carcass reuse:
// the packet in service, the packets in flight and any drop-tail queue
// content are released back to the packet pool, and the monitor and
// tap detach (the bottleneck links re-attach theirs per run). The
// owned transmit timer needs no attention — the engine's Reset already
// unhooked it, and Timer.Reset rearms from any state. Non-drop-tail
// queues (AQMs) are left to the garbage collector; the testbeds
// rebuild those per run.
func (l *Link) Reset() {
	if l.txPkt != nil {
		l.txPkt.Release()
		l.txPkt = nil
	}
	l.line.Reset()
	l.busy = false
	l.Monitor = nil
	l.Tap = nil
	if dt, ok := l.Queue.(*DropTail); ok {
		dt.Reset()
	}
}

// Send offers a packet to the link. It reports whether the packet was
// accepted (false = dropped by the queue, which releases the packet).
//
//qoe:hotpath
func (l *Link) Send(p *Packet) bool {
	if l.Rate == 0 {
		// Pure delay element: no serialization, no queueing.
		if l.Monitor != nil {
			l.Monitor.transmitted(p)
		}
		if l.Tap != nil {
			l.Tap(p, l.eng.Now())
		}
		l.line.Push(p, l.eng.Now().Add(l.Delay))
		return true
	}
	if !l.Queue.Enqueue(p, l.eng.Now()) {
		p.Release()
		return false
	}
	if !l.busy {
		l.transmitNext()
	}
	return true
}

// transmitNext serializes the head-of-line packet. The next
// transmission starts when serialization (not propagation) completes,
// so the link can hold Delay/serialization many packets in flight.
//
//qoe:hotpath
func (l *Link) transmitNext() {
	p := l.Queue.Dequeue(l.eng.Now())
	if p == nil {
		l.busy = false
		return
	}
	l.busy = true
	l.txPkt = p
	txTime := time.Duration(float64(p.Size*8) / l.Rate * float64(time.Second))
	l.txTimer.Reset(txTime)
}

// Fire implements sim.Handler: the packet in service finished
// serializing — start its propagation and pull the next one.
//
//qoe:hotpath
func (l *Link) Fire(now sim.Time) {
	p := l.txPkt
	l.txPkt = nil
	if l.Monitor != nil {
		l.Monitor.transmitted(p)
	}
	if l.Tap != nil {
		l.Tap(p, now)
	}
	l.line.Push(p, now.Add(l.Delay))
	l.transmitNext()
}

// TransmissionTime returns how long one packet of the given size takes
// to serialize on this link.
func (l *Link) TransmissionTime(size int) time.Duration {
	if l.Rate == 0 {
		return 0
	}
	return time.Duration(float64(size*8) / l.Rate * float64(time.Second))
}
