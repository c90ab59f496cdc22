package aqm

import (
	"time"

	"bufferqoe/internal/netem"
	"bufferqoe/internal/sim"
)

// RED implements Random Early Detection (Floyd & Jacobson 1993): an
// EWMA of the queue length gates probabilistic early drops between
// MinTh and MaxTh, and forces drops above MaxTh. With Adaptive set it
// becomes ARED (Floyd, Gummadi & Shenker 2001): MaxP is periodically
// re-tuned so the average queue settles midway between the thresholds,
// removing RED's notorious sensitivity to the MaxP choice.
type RED struct {
	// MinTh and MaxTh are the average-queue thresholds in packets.
	MinTh, MaxTh float64
	// MaxP is the drop probability at MaxTh (classic value 0.1).
	MaxP float64
	// Wq is the EWMA weight for the average queue estimate (0.002).
	Wq float64
	// CapPackets bounds the physical queue.
	CapPackets int
	// ECN marks ECT packets instead of early-dropping them; forced
	// drops (average above MaxTh or a full buffer) still discard.
	ECN bool
	// Adaptive enables the ARED MaxP adaptation (interval 500 ms,
	// additive increase 0.01, multiplicative decrease 0.9, MaxP kept
	// within [0.01, 0.5]).
	Adaptive bool
	// Monitor, if non-nil, observes queue events.
	Monitor *netem.QueueMonitor

	rng   *sim.RNG
	q     []*netem.Packet
	head  int
	bytes int

	avg          float64
	count        int // packets since last drop, for uniform spreading
	nextAdaptAt  sim.Time
	adaptStarted bool

	// EarlyDrops and ForcedDrops split the RED drop reasons.
	EarlyDrops, ForcedDrops uint64
	// Marks counts CE marks applied in place of early drops.
	Marks uint64
}

// NewRED returns a RED queue with classic parameters scaled to the
// capacity: MinTh = cap/4 (>=1), MaxTh = 3*cap/4, MaxP = 0.1.
func NewRED(capPackets int, rng *sim.RNG) *RED {
	if capPackets < 2 {
		capPackets = 2
	}
	return &RED{
		MinTh:      max(1, float64(capPackets)/4),
		MaxTh:      3 * float64(capPackets) / 4,
		MaxP:       0.1,
		Wq:         0.002,
		CapPackets: capPackets,
		rng:        rng,
	}
}

// NewARED returns an adaptive RED queue (Floyd et al. 2001) with the
// same threshold scaling as NewRED.
func NewARED(capPackets int, rng *sim.RNG) *RED {
	r := NewRED(capPackets, rng)
	r.Adaptive = true
	return r
}

// ARED adaptation constants (Floyd, Gummadi & Shenker 2001).
const (
	aredInterval = 500 * time.Millisecond
	aredAlpha    = 0.01 // additive MaxP increase
	aredBeta     = 0.9  // multiplicative MaxP decrease
	aredMinP     = 0.01
	aredMaxP     = 0.5
)

// adapt re-tunes MaxP once per interval so that avg tracks the middle
// of [MinTh, MaxTh].
func (r *RED) adapt(now sim.Time) {
	if !r.adaptStarted {
		r.adaptStarted = true
		r.nextAdaptAt = now.Add(aredInterval)
		return
	}
	if now < r.nextAdaptAt {
		return
	}
	r.nextAdaptAt = now.Add(aredInterval)
	target := r.MinTh + 0.5*(r.MaxTh-r.MinTh)
	spread := 0.1 * (r.MaxTh - r.MinTh) // +-10% dead band
	switch {
	case r.avg > target+spread && r.MaxP < aredMaxP:
		r.MaxP += aredAlpha
		if r.MaxP > aredMaxP {
			r.MaxP = aredMaxP
		}
	case r.avg < target-spread && r.MaxP > aredMinP:
		r.MaxP *= aredBeta
		if r.MaxP < aredMinP {
			r.MaxP = aredMinP
		}
	}
}

func max(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

// Enqueue implements netem.Queue.
func (r *RED) Enqueue(p *netem.Packet, now sim.Time) bool {
	r.avg = (1-r.Wq)*r.avg + r.Wq*float64(r.Len())
	if r.Adaptive {
		r.adapt(now)
	}
	drop := func() bool {
		if r.Monitor != nil {
			r.Monitor.NoteDrop()
		}
		return false
	}
	switch {
	case r.Len() >= r.CapPackets:
		r.ForcedDrops++
		r.count = 0
		return drop()
	case r.avg >= r.MaxTh:
		r.ForcedDrops++
		r.count = 0
		return drop()
	case r.avg > r.MinTh:
		pb := r.MaxP * (r.avg - r.MinTh) / (r.MaxTh - r.MinTh)
		pa := pb / (1 - float64(r.count)*pb)
		if pa < 0 || pa > 1 {
			pa = 1
		}
		if r.rng.Bool(pa) {
			if r.ECN && p.ECT {
				// Mark instead of early drop; the packet is admitted.
				r.Marks++
				r.count = 0
				p.CE = true
				break
			}
			r.EarlyDrops++
			r.count = 0
			return drop()
		}
		r.count++
	default:
		r.count = 0
	}
	p.Enqueued = now
	r.q = append(r.q, p)
	r.bytes += p.Size
	if r.Monitor != nil {
		r.Monitor.NoteEnqueue()
	}
	return true
}

// Dequeue implements netem.Queue.
func (r *RED) Dequeue(now sim.Time) *netem.Packet {
	if r.Len() == 0 {
		return nil
	}
	p := r.q[r.head]
	r.q[r.head] = nil
	r.head++
	if r.head == len(r.q) {
		r.q = r.q[:0]
		r.head = 0
	}
	r.bytes -= p.Size
	if r.Monitor != nil {
		r.Monitor.NoteDequeue(p, now)
	}
	return p
}

// Len implements netem.Queue.
func (r *RED) Len() int { return len(r.q) - r.head }

// Bytes implements netem.Queue.
func (r *RED) Bytes() int { return r.bytes }
