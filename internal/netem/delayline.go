package netem

import "bufferqoe/internal/sim"

// DelayLine is the propagation stage of a FIFO hop: packets pushed
// with non-decreasing delivery times wait in a ring and reach the
// receiver in push order. It is the reserved-sequence pattern of
// package sim applied to packets: each push draws the sequence number
// a per-packet one-shot would have drawn, and one owned timer is
// armed for the head of the ring under exactly that (at, seq) key. The
// engine's pop order is what it would be with one heap entry per
// packet in flight, while the heap holds one entry per hop.
//
// A DelayLine is embedded by value in its hop and must not be copied
// after Init.
type DelayLine struct {
	eng   *sim.Engine
	dst   Receiver
	timer sim.Timer // owned: armed for the head of the ring

	ring []inFlight // circular; len is a power of two
	head int        // index of the oldest entry
	n    int        // occupied slots
}

// inFlight is one propagating packet and the heap key of its delivery.
type inFlight struct {
	p   *Packet
	at  sim.Time
	seq uint64
}

// minDelayRing is the ring's first allocation; it doubles from there.
const minDelayRing = 16

// Init binds the line to its engine and receiver.
func (d *DelayLine) Init(eng *sim.Engine, dst Receiver) {
	d.eng, d.dst = eng, dst
	eng.InitTimer(&d.timer, d)
}

// Reset empties the line for carcass reuse, releasing the packets
// still in flight back to their pool and keeping the ring storage.
func (d *DelayLine) Reset() {
	d.timer.Stop()
	mask := len(d.ring) - 1
	for ; d.n > 0; d.n-- {
		d.ring[d.head].p.Release()
		d.ring[d.head].p = nil
		d.head = (d.head + 1) & mask
	}
	d.head = 0
}

// Push hands the line a packet to deliver at the given time (clamped
// to now), drawing its sequence number now, as scheduling a one-shot
// for the packet would. Delivery times must not decrease from one push
// to the next: that is what makes the stream FIFO. A hop whose packets
// overtake one another splits them into streams that each keep this
// promise, as ReorderBox does.
//
//qoe:hotpath
func (d *DelayLine) Push(p *Packet, at sim.Time) {
	if now := d.eng.Now(); at < now {
		at = now
	}
	seq := d.eng.ReserveSeq(1)
	if d.n == 0 {
		d.timer.ResetAtSeq(at, seq)
	} else if at < d.ring[(d.head+d.n-1)&(len(d.ring)-1)].at {
		panic("netem: DelayLine delivery times must not decrease")
	}
	if d.n == len(d.ring) {
		d.grow()
	}
	d.ring[(d.head+d.n)&(len(d.ring)-1)] = inFlight{p: p, at: at, seq: seq}
	d.n++
}

// grow doubles the ring, unwrapping it so the head lands at index 0.
func (d *DelayLine) grow() {
	size := 2 * len(d.ring)
	if size == 0 {
		size = minDelayRing
	}
	ring := make([]inFlight, size)
	k := copy(ring, d.ring[d.head:])
	copy(ring[k:], d.ring[:d.head])
	d.ring, d.head = ring, 0
}

// Fire implements sim.Handler: the head packet finished propagating.
// The timer moves to the next head before the receiver runs, so a
// receiver that sends back into this line finds it consistent.
//
//qoe:hotpath
func (d *DelayLine) Fire(now sim.Time) {
	p := d.ring[d.head].p
	d.ring[d.head].p = nil
	d.head = (d.head + 1) & (len(d.ring) - 1)
	d.n--
	if d.n > 0 {
		next := &d.ring[d.head]
		d.timer.ResetAtSeq(next.at, next.seq)
	}
	d.dst.Receive(p)
}
