package netem

import "bufferqoe/internal/sim"

// Queue is the buffer in front of a link's transmitter. Implementations
// decide the drop discipline: the paper studies drop-tail FIFOs sized
// in packets (NetFPGA reference router, Cisco line cards); the aqm
// package provides CoDel and RED alternatives.
type Queue interface {
	// Enqueue offers a packet to the queue at the given time. It
	// reports whether the packet was accepted (false = dropped).
	Enqueue(p *Packet, now sim.Time) bool
	// Dequeue removes and returns the next packet to transmit, or nil
	// if the queue is empty. AQMs may drop internally during Dequeue.
	Dequeue(now sim.Time) *Packet
	// Len returns the number of queued packets.
	Len() int
	// Bytes returns the total queued bytes.
	Bytes() int
}

// DropTail is a FIFO queue with a fixed capacity in packets, matching
// the paper's buffer configurations (Table 2: 8-256 packets on the
// access testbed, 8-7490 on the backbone). A zero CapPackets means
// capacity 1 (a queue must hold at least the packet in service).
//
// Storage is a circular buffer, allocated on first use and reused for
// the queue's lifetime: the bottleneck buffer — the busiest data
// structure in a congested cell — never reallocates while packets
// churn through it. A capacity up to eagerRing is allocated whole; a
// larger ring doubles up to CapPackets as packets queue (see grow).
type DropTail struct {
	// CapPackets is the buffer size in packets.
	CapPackets int
	// Monitor, if non-nil, observes enqueue/drop/dequeue events.
	Monitor *QueueMonitor

	ring  []*Packet
	head  int // index of the oldest packet
	n     int // occupied slots
	bytes int
}

// NewDropTail returns a drop-tail queue holding at most capPackets
// packets.
func NewDropTail(capPackets int) *DropTail {
	if capPackets < 1 {
		capPackets = 1
	}
	return &DropTail{CapPackets: capPackets}
}

// Reset empties the queue for carcass reuse, releasing any queued
// packets back to their pool and keeping the ring storage. The monitor
// is not notified: this is teardown bookkeeping, not simulated
// dequeueing.
func (d *DropTail) Reset() {
	for d.n > 0 {
		p := d.ring[d.head]
		d.ring[d.head] = nil
		d.head++
		if d.head == len(d.ring) {
			d.head = 0
		}
		d.n--
		p.Release()
	}
	d.head, d.bytes = 0, 0
}

// Enqueue implements Queue.
func (d *DropTail) Enqueue(p *Packet, now sim.Time) bool {
	if d.n >= d.CapPackets {
		if d.Monitor != nil {
			d.Monitor.drop(p, now, d.n, d.bytes)
		}
		return false
	}
	if d.n == len(d.ring) {
		d.grow()
	}
	p.Enqueued = now
	i := d.head + d.n
	if i >= len(d.ring) {
		i -= len(d.ring)
	}
	d.ring[i] = p
	d.n++
	d.bytes += p.Size
	if d.Monitor != nil {
		d.Monitor.enqueue(p, now, d.n, d.bytes)
	}
	return true
}

// eagerRing is the largest capacity a ring takes whole on its first
// enqueue, as it always had: every buffer the paper sizes (at most
// 7,490 packets) and the testbeds' LAN queues (2,048). A larger ring
// starts at this size and doubles as packets queue, so a huge
// capacity costs what the simulation queues, not the capacity.
// Starting every ring small instead would shrink the heap the LAN
// queues keep resident and make the collector run more often.
const eagerRing = 1 << 14

// grow enlarges the full ring, capped at CapPackets, unwrapping it so
// the head lands at index 0.
func (d *DropTail) grow() {
	size := min(max(2*len(d.ring), eagerRing), d.CapPackets)
	ring := make([]*Packet, size)
	k := copy(ring, d.ring[d.head:])
	copy(ring[k:], d.ring[:d.head])
	d.ring, d.head = ring, 0
}

// Dequeue implements Queue.
func (d *DropTail) Dequeue(now sim.Time) *Packet {
	if d.n == 0 {
		return nil
	}
	p := d.ring[d.head]
	d.ring[d.head] = nil
	d.head++
	if d.head == len(d.ring) {
		d.head = 0
	}
	d.n--
	d.bytes -= p.Size
	if d.Monitor != nil {
		d.Monitor.dequeue(p, now, d.n, d.bytes)
	}
	return p
}

// Len implements Queue.
func (d *DropTail) Len() int { return d.n }

// Bytes implements Queue.
func (d *DropTail) Bytes() int { return d.bytes }
