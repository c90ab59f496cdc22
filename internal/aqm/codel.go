// Package aqm provides active queue management disciplines. The paper
// motivates its study with the bufferbloat debate that produced CoDel
// (Nichols & Jacobson, "Controlling Queue Delay", ACM Queue 2012) and
// lists AQM evaluation as the natural follow-up; this package supplies
// CoDel and RED as drop-in replacements for the drop-tail bottleneck
// queue so the ablation benchmarks can quantify how much AQM recovers
// of the QoE lost to bloated buffers.
package aqm

import (
	"math"
	"time"

	"bufferqoe/internal/netem"
	"bufferqoe/internal/sim"
)

// CoDel implements the Controlled Delay AQM (ACM Queue 2012 reference
// pseudocode). Packets whose sojourn time stays above Target for at
// least Interval are dropped at dequeue, with the drop rate increasing
// by the inverse-sqrt control law.
type CoDel struct {
	// Target is the acceptable standing queue delay (default 5 ms).
	Target time.Duration
	// Interval is the sliding measurement window (default 100 ms).
	Interval time.Duration
	// CapPackets bounds the physical queue (drop-tail beyond it).
	CapPackets int
	// Monitor, if non-nil, observes queue events.
	Monitor *netem.QueueMonitor
	// ECN marks ECN-capable (ECT) packets with CE instead of dropping
	// them (RFC 8289 §3); non-ECT packets are still dropped.
	ECN bool

	q     []*netem.Packet
	head  int
	bytes int

	// CoDel state machine.
	dropping      bool
	firstAboveAt  sim.Time
	dropNextAt    sim.Time
	dropCount     int
	lastDropCount int

	// Drops counts AQM (non-overflow) drops.
	Drops uint64
	// Marks counts CE marks applied in place of drops (ECN mode).
	Marks uint64
}

// NewCoDel returns a CoDel queue with the reference parameters
// (target 5 ms, interval 100 ms) and the given physical capacity.
func NewCoDel(capPackets int) *CoDel {
	if capPackets < 1 {
		capPackets = 1
	}
	return &CoDel{
		Target:     5 * time.Millisecond,
		Interval:   100 * time.Millisecond,
		CapPackets: capPackets,
	}
}

// NewCoDelForRate returns a CoDel tuned for a link of the given rate:
// RFC 8289 §4.4 raises the target on slow links, where serializing a
// single MTU already exceeds 5 ms, to 1.5x the MTU transmission time
// (otherwise the queue can never satisfy the target and the control
// law escalates to dropping every packet).
func NewCoDelForRate(capPackets int, rateBps float64) *CoDel {
	c := NewCoDel(capPackets)
	if rateBps > 0 {
		mtuTx := time.Duration(float64(netem.MTU*8) / rateBps * float64(time.Second))
		if t := mtuTx * 3 / 2; t > c.Target {
			c.Target = t
		}
	}
	return c
}

// Enqueue implements netem.Queue.
func (c *CoDel) Enqueue(p *netem.Packet, now sim.Time) bool {
	if c.Len() >= c.CapPackets {
		if c.Monitor != nil {
			c.Monitor.NoteDrop()
		}
		return false
	}
	p.Enqueued = now
	c.q = append(c.q, p)
	c.bytes += p.Size
	if c.Monitor != nil {
		c.Monitor.NoteEnqueue()
	}
	return true
}

func (c *CoDel) popHead() *netem.Packet {
	if c.Len() == 0 {
		return nil
	}
	p := c.q[c.head]
	c.q[c.head] = nil
	c.head++
	if c.head == len(c.q) {
		c.q = c.q[:0]
		c.head = 0
	}
	c.bytes -= p.Size
	return p
}

// doDequeue pops the head packet and updates the "sojourn above
// target" tracking, reporting whether the packet should be considered
// for dropping (ok_to_drop in the reference pseudocode).
func (c *CoDel) doDequeue(now sim.Time) (*netem.Packet, bool) {
	p := c.popHead()
	if p == nil {
		c.firstAboveAt = 0
		return nil, false
	}
	sojourn := now.Sub(p.Enqueued)
	if sojourn < c.Target || c.bytes <= netem.MTU {
		c.firstAboveAt = 0
		return p, false
	}
	if c.firstAboveAt == 0 {
		c.firstAboveAt = now.Add(c.Interval)
		return p, false
	}
	return p, now >= c.firstAboveAt
}

// Dequeue implements netem.Queue with the CoDel state machine.
func (c *CoDel) Dequeue(now sim.Time) *netem.Packet {
	p, okToDrop := c.doDequeue(now)
	if p == nil {
		c.dropping = false
		return nil
	}
	if c.dropping {
		if !okToDrop {
			c.dropping = false
		} else if now >= c.dropNextAt {
			for now >= c.dropNextAt && c.dropping {
				if c.ECN && p.ECT {
					// Mark in place of the drop: the control law
					// advances exactly as if p had been dropped, but
					// the packet is delivered carrying CE.
					c.Marks++
					c.dropCount++
					p.CE = true
					c.dropNextAt = c.controlLaw(c.dropNextAt)
					return c.note(p, now)
				}
				c.Drops++
				c.dropCount++
				if c.Monitor != nil {
					c.Monitor.NoteDrop()
				}
				p.Release()
				var ok bool
				p, ok = c.doDequeue(now)
				if p == nil {
					c.dropping = false
					return nil
				}
				if !ok {
					c.dropping = false
				} else {
					c.dropNextAt = c.controlLaw(c.dropNextAt)
				}
			}
		}
	} else if okToDrop {
		if c.ECN && p.ECT {
			// Enter dropping state by marking instead of dropping.
			c.Marks++
			p.CE = true
			c.dropping = true
			delta := c.dropCount - c.lastDropCount
			c.dropCount = 1
			if delta > 1 && now.Sub(c.dropNextAt) < 16*c.Interval {
				c.dropCount = delta
			}
			c.lastDropCount = c.dropCount
			c.dropNextAt = c.controlLaw(now)
			return c.note(p, now)
		}
		// Enter dropping state: drop this packet and schedule the next.
		c.Drops++
		if c.Monitor != nil {
			c.Monitor.NoteDrop()
		}
		p.Release()
		p2, _ := c.doDequeue(now)
		c.dropping = true
		// Start closer to the previous rate if we were dropping
		// recently (reference "delta" heuristic).
		delta := c.dropCount - c.lastDropCount
		c.dropCount = 1
		if delta > 1 && now.Sub(c.dropNextAt) < 16*c.Interval {
			c.dropCount = delta
		}
		c.lastDropCount = c.dropCount
		c.dropNextAt = c.controlLaw(now)
		p = p2
		if p == nil {
			c.dropping = false
			return nil
		}
	}
	return c.note(p, now)
}

func (c *CoDel) controlLaw(t sim.Time) sim.Time {
	return t.Add(time.Duration(float64(c.Interval) / math.Sqrt(float64(c.dropCount))))
}

// note feeds the queue monitor for a delivered packet; drops inside the
// CoDel state machine are counted by the monitor as drops.
func (c *CoDel) note(p *netem.Packet, now sim.Time) *netem.Packet {
	if p != nil && c.Monitor != nil {
		c.Monitor.NoteDequeue(p, now)
	}
	return p
}

// Len implements netem.Queue.
func (c *CoDel) Len() int { return len(c.q) - c.head }

// Bytes implements netem.Queue.
func (c *CoDel) Bytes() int { return c.bytes }
