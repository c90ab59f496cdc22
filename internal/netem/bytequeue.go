package netem

import "bufferqoe/internal/sim"

// DropTailBytes is a FIFO queue whose capacity is counted in bytes
// rather than packets. Real line cards size buffers either way; the
// distinction matters for mixed traffic because a packet-counted queue
// charges a 60-byte VoIP frame the same as a 1500-byte bulk segment,
// while a byte-counted queue lets many small packets share the space
// that few large ones would occupy. The abl-bytequeue experiment
// quantifies the difference at the paper's access uplink.
//
// A packet is accepted while the queue holds fewer than CapBytes bytes,
// so the occupancy may overshoot capacity by at most one MTU — the
// standard "at least one packet in flight" convention that also keeps a
// tiny byte budget from deadlocking the link.
type DropTailBytes struct {
	// CapBytes is the buffer size in bytes.
	CapBytes int
	// Monitor, if non-nil, observes enqueue/drop/dequeue events.
	Monitor *QueueMonitor

	q     []*Packet
	head  int
	bytes int
}

// NewDropTailBytes returns a byte-counted drop-tail queue. Capacities
// below one MTU are raised to one MTU so a full-sized packet can always
// be buffered.
func NewDropTailBytes(capBytes int) *DropTailBytes {
	if capBytes < MTU {
		capBytes = MTU
	}
	return &DropTailBytes{CapBytes: capBytes}
}

// Enqueue implements Queue.
func (d *DropTailBytes) Enqueue(p *Packet, now sim.Time) bool {
	if d.bytes >= d.CapBytes {
		if d.Monitor != nil {
			d.Monitor.NoteDrop()
		}
		return false
	}
	p.Enqueued = now
	d.q = append(d.q, p)
	d.bytes += p.Size
	if d.Monitor != nil {
		d.Monitor.NoteEnqueue()
	}
	return true
}

// Dequeue implements Queue.
func (d *DropTailBytes) Dequeue(now sim.Time) *Packet {
	if d.Len() == 0 {
		return nil
	}
	p := d.q[d.head]
	d.q[d.head] = nil
	d.head++
	if d.head == len(d.q) {
		d.q = d.q[:0]
		d.head = 0
	}
	d.bytes -= p.Size
	if d.Monitor != nil {
		d.Monitor.NoteDequeue(p, now)
	}
	return p
}

// Len implements Queue.
func (d *DropTailBytes) Len() int { return len(d.q) - d.head }

// Bytes implements Queue.
func (d *DropTailBytes) Bytes() int { return d.bytes }
