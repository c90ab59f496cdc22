package aqm

import (
	"time"

	"bufferqoe/internal/netem"
	"bufferqoe/internal/sim"
)

// PIE implements the Proportional Integral controller Enhanced AQM
// (RFC 8033), the discipline the cable industry standardized for
// DOCSIS modems in direct response to the access-uplink bufferbloat
// this paper studies. A drop probability applied at enqueue is driven
// by a PI controller on the estimated queueing latency:
//
//	p += Alpha*(delay - Target) + Beta*(delay - delayOld)
//
// Latency is estimated from the queue backlog and a departure-rate
// measurement (Little's law), as in the RFC's reference code. The
// controller state advances lazily from enqueue/dequeue calls, which is
// exact in a discrete-event setting: probability updates land on the
// first queue operation after each TUpdate boundary.
type PIE struct {
	// Target is the latency setpoint (RFC default 15 ms).
	Target time.Duration
	// TUpdate is the probability update interval (RFC default 15 ms).
	TUpdate time.Duration
	// Alpha and Beta are the PI gains in 1/s (RFC defaults 0.125 and
	// 1.25, applied to delays in seconds).
	Alpha, Beta float64
	// MaxBurst allows initial bursts through undropped (150 ms).
	MaxBurst time.Duration
	// CapPackets bounds the physical queue.
	CapPackets int
	// ECN marks ECT packets instead of dropping while the drop
	// probability is below ECNThreshold (RFC 8033 §5.1).
	ECN bool
	// ECNThreshold is the marking cutoff (default 0.1).
	ECNThreshold float64
	// Monitor, if non-nil, observes queue events.
	Monitor *netem.QueueMonitor

	rng   *sim.RNG
	q     []*netem.Packet
	head  int
	bytes int

	prob         float64
	qdelay       time.Duration
	qdelayOld    time.Duration
	burstLeft    time.Duration
	nextUpdateAt sim.Time
	started      bool

	// Departure rate estimation (RFC 8033 §4.3): measure in cycles
	// that start when the backlog exceeds a threshold.
	inMeasurement bool
	dqStart       sim.Time
	dqCount       int // bytes dequeued this cycle
	avgDqRate     float64

	// Drops counts probabilistic (non-overflow) drops; Marks counts CE
	// marks applied in place of drops.
	Drops, Marks uint64
}

// PIE constants from RFC 8033.
const (
	pieDqThreshold = 16 * 1024 // bytes; start a rate measurement cycle
	pieMaxProb     = 1.0
)

// NewPIE returns a PIE queue with the RFC 8033 default parameters and
// the given physical capacity in packets.
func NewPIE(capPackets int, rng *sim.RNG) *PIE {
	if capPackets < 1 {
		capPackets = 1
	}
	return &PIE{
		Target:       15 * time.Millisecond,
		TUpdate:      15 * time.Millisecond,
		Alpha:        0.125,
		Beta:         1.25,
		MaxBurst:     150 * time.Millisecond,
		ECNThreshold: 0.1,
		CapPackets:   capPackets,
		rng:          rng,
	}
}

// Enqueue implements netem.Queue: it applies the current drop
// probability before admitting the packet.
func (pi *PIE) Enqueue(p *netem.Packet, now sim.Time) bool {
	pi.update(now)
	if pi.Len() >= pi.CapPackets {
		if pi.Monitor != nil {
			pi.Monitor.NoteDrop()
		}
		return false
	}
	if pi.shouldDrop(p) {
		if pi.ECN && p.ECT && pi.prob < pi.ECNThreshold {
			pi.Marks++
			p.CE = true
		} else {
			pi.Drops++
			if pi.Monitor != nil {
				pi.Monitor.NoteDrop()
			}
			return false
		}
	}
	p.Enqueued = now
	pi.q = append(pi.q, p)
	pi.bytes += p.Size
	if pi.Monitor != nil {
		pi.Monitor.NoteEnqueue()
	}
	return true
}

// shouldDrop implements the RFC's safeguards: no drops while the burst
// allowance lasts or while the queue is trivially small.
func (pi *PIE) shouldDrop(p *netem.Packet) bool {
	if pi.burstLeft > 0 {
		return false
	}
	if pi.qdelay < pi.Target/2 && pi.prob < 0.2 {
		return false
	}
	if pi.bytes <= 2*netem.MTU {
		return false
	}
	return pi.rng.Bool(pi.prob)
}

// update advances the PI controller across any TUpdate boundaries that
// have passed since the last queue operation.
func (pi *PIE) update(now sim.Time) {
	if !pi.started {
		pi.started = true
		pi.burstLeft = pi.MaxBurst
		pi.nextUpdateAt = now.Add(pi.TUpdate)
		return
	}
	for now >= pi.nextUpdateAt {
		// Latency estimate: backlog over measured departure rate,
		// falling back to zero-delay when the rate is unknown (an
		// idle or newly active queue).
		if pi.avgDqRate > 0 {
			pi.qdelay = time.Duration(float64(pi.bytes) / pi.avgDqRate * float64(time.Second))
		} else {
			pi.qdelay = 0
		}

		// PI control with the RFC's auto-scaling of gains at low
		// probability to avoid overshoot.
		alpha, beta := pi.Alpha, pi.Beta
		switch {
		case pi.prob < 0.000001:
			alpha /= 2048
			beta /= 2048
		case pi.prob < 0.00001:
			alpha /= 512
			beta /= 512
		case pi.prob < 0.0001:
			alpha /= 128
			beta /= 128
		case pi.prob < 0.001:
			alpha /= 32
			beta /= 32
		case pi.prob < 0.01:
			alpha /= 8
			beta /= 8
		case pi.prob < 0.1:
			alpha /= 2
			beta /= 2
		}
		dp := alpha*(pi.qdelay-pi.Target).Seconds() + beta*(pi.qdelay-pi.qdelayOld).Seconds()
		pi.prob += dp
		// Exponential decay when the queue is idle (RFC §4.2).
		if pi.qdelay == 0 && pi.qdelayOld == 0 {
			pi.prob *= 0.98
		}
		if pi.prob < 0 {
			pi.prob = 0
		}
		if pi.prob > pieMaxProb {
			pi.prob = pieMaxProb
		}
		pi.qdelayOld = pi.qdelay

		if pi.burstLeft > 0 {
			pi.burstLeft -= pi.TUpdate
			if pi.prob > 0 || pi.qdelay >= pi.Target/2 {
				pi.burstLeft = 0 // burst protection ends at congestion onset
			}
		}
		pi.nextUpdateAt = pi.nextUpdateAt.Add(pi.TUpdate)
	}
}

// Dequeue implements netem.Queue and feeds the departure-rate
// estimator.
func (pi *PIE) Dequeue(now sim.Time) *netem.Packet {
	pi.update(now)
	if pi.Len() == 0 {
		return nil
	}
	p := pi.q[pi.head]
	pi.q[pi.head] = nil
	pi.head++
	if pi.head == len(pi.q) {
		pi.q = pi.q[:0]
		pi.head = 0
	}
	pi.bytes -= p.Size

	// Departure-rate measurement cycle (RFC 8033 §4.3).
	if !pi.inMeasurement && pi.bytes >= pieDqThreshold {
		pi.inMeasurement = true
		pi.dqStart = now
		pi.dqCount = 0
	}
	if pi.inMeasurement {
		pi.dqCount += p.Size
		if pi.dqCount >= pieDqThreshold {
			dt := now.Sub(pi.dqStart).Seconds()
			if dt > 0 {
				rate := float64(pi.dqCount) / dt
				if pi.avgDqRate == 0 {
					pi.avgDqRate = rate
				} else {
					pi.avgDqRate = 0.875*pi.avgDqRate + 0.125*rate
				}
			}
			pi.inMeasurement = false
		}
	}
	if pi.Monitor != nil {
		pi.Monitor.NoteDequeue(p, now)
	}
	return p
}

// Len implements netem.Queue.
func (pi *PIE) Len() int { return len(pi.q) - pi.head }

// Bytes implements netem.Queue.
func (pi *PIE) Bytes() int { return pi.bytes }

// Prob exposes the current drop probability (for tests and the
// experiment harness).
func (pi *PIE) Prob() float64 { return pi.prob }
