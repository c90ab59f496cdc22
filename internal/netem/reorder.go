package netem

import (
	"time"

	"bufferqoe/internal/sim"
)

// ReorderBox is a delay element that reorders packets: with probability
// Prob a packet is held back by ReorderLag while its successors are
// delivered on time and overtake it. This is the netem-style reorder
// model (the bassosimone/netem lesson: TCP robustness against
// reordering — spurious dup-ACKs, DSACK-less retransmits — is a
// dimension the jitter knob deliberately cannot exercise, because
// JitterBox serializes delivery and preserves arrival order).
//
// Unlike JitterBox there is no FIFO horizon: a held packet does NOT
// block the packets behind it — that is the whole point. Each of the
// two streams is FIFO on its own, though: on-time packets leave at
// their arrival instant and held ones a constant lag after it, so each
// stream is a DelayLine.
type ReorderBox struct {
	// Prob is the probability a packet is held back.
	Prob float64

	eng          *sim.Engine
	rng          *sim.RNG
	onTime, held DelayLine
}

// ReorderLag is how long a held packet lags its on-time peers: enough
// to let several full-size packets at access rates overtake.
const ReorderLag = 5 * time.Millisecond

// NewReorderBox creates a reordering element delivering to dst.
func NewReorderBox(eng *sim.Engine, rng *sim.RNG, prob float64, dst Receiver) *ReorderBox {
	r := &ReorderBox{Prob: prob, eng: eng, rng: rng}
	r.onTime.Init(eng, dst)
	r.held.Init(eng, dst)
	return r
}

// Reset re-seeds the element for carcass reuse: a fresh RNG stream,
// a new reorder probability and no packets held, exactly as
// NewReorderBox would leave it.
func (r *ReorderBox) Reset(rng *sim.RNG, prob float64) {
	r.Prob, r.rng = prob, rng
	r.onTime.Reset()
	r.held.Reset()
}

// Receive implements Receiver: on-time packets are forwarded at the
// current instant (still through the event queue, which keeps their
// delivery ordered against held packets), held packets ReorderLag
// later.
func (r *ReorderBox) Receive(p *Packet) {
	now := r.eng.Now()
	if r.rng.Bool(r.Prob) {
		r.held.Push(p, now.Add(ReorderLag))
	} else {
		r.onTime.Push(p, now)
	}
}
