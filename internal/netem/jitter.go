package netem

import (
	"time"

	"bufferqoe/internal/sim"
)

// JitterBox is a delay element that adds a random per-packet delay on
// top of a constant base, without reordering packets. It models the
// variable layer-2 delays of wireless links (802.11 retransmissions,
// rate adaptation) that the paper explicitly excludes from its testbeds
// ("we decided to omit WiFi connectivity which adds its own variable
// delay characteristics"); the ext-jitter experiment re-adds that
// dimension to show how path jitter shifts the buffer-sizing picture.
//
// Each packet is delayed by Base plus a draw from an exponential
// distribution with mean Jitter, truncated at MaxJitter. Delivery is
// serialized so a delayed packet holds back its successors (FIFO, as
// with a link-layer ARQ that blocks the transmit queue), which is how
// Wi-Fi retransmission delay manifests in practice.
type JitterBox struct {
	// Base is the constant one-way delay component.
	Base time.Duration
	// Jitter is the mean of the exponential extra delay.
	Jitter time.Duration
	// MaxJitter truncates the extra delay (a link-layer gives up after
	// a bounded number of retransmissions). Zero means 8x Jitter.
	MaxJitter time.Duration

	eng  *sim.Engine
	rng  *sim.RNG
	free sim.Time  // earliest time the next packet may be delivered
	line DelayLine // the free horizon makes delivery times monotone
}

// NewJitterBox creates a jitter element delivering to dst.
func NewJitterBox(eng *sim.Engine, rng *sim.RNG, base, jitter time.Duration, dst Receiver) *JitterBox {
	j := &JitterBox{Base: base, Jitter: jitter, eng: eng, rng: rng}
	j.line.Init(eng, dst)
	return j
}

// Reset re-seeds the jitter element for carcass reuse: a fresh RNG
// stream, new delay parameters, a rewound serialization horizon and
// no packets in flight, exactly as NewJitterBox would leave it.
func (j *JitterBox) Reset(rng *sim.RNG, base, jitter time.Duration) {
	j.Base, j.Jitter, j.MaxJitter = base, jitter, 0
	j.rng = rng
	j.free = 0
	j.line.Reset()
}

// Receive implements Receiver: it forwards the packet after the jittered
// delay, preserving arrival order.
func (j *JitterBox) Receive(p *Packet) {
	maxJ := j.MaxJitter
	if maxJ == 0 {
		maxJ = 8 * j.Jitter
	}
	extra := time.Duration(j.rng.Exponential(float64(j.Jitter)))
	if extra > maxJ {
		extra = maxJ
	}
	deliver := j.eng.Now().Add(j.Base + extra)
	if deliver < j.free {
		deliver = j.free
	}
	j.free = deliver
	j.line.Push(p, deliver)
}
