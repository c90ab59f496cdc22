// Package mac models an 802.11-flavored last hop: CSMA/CA contention
// (DCF backoff), collisions with exponential backoff and a retry
// limit, and A-MPDU-style frame aggregation. It exists to re-ask the
// paper's buffer-sizing question on the link type its testbeds
// deliberately excluded ("we decided to omit WiFi connectivity"):
// Li/Leith/Malone ("Buffer Sizing for 802.11 Based Networks") show
// that MAC contention and aggregation make fixed BDP rules wrong on
// WiFi, because the service rate the buffer drains at is itself a
// function of contention, not a constant.
//
// The model is a DCF-lite abstraction, not a frame-accurate 802.11
// implementation:
//
//   - One shared Medium per cell serializes airtime between the links
//     that contend on it (the AP's downlink and the station uplink
//     share one channel, like a real BSS).
//   - Each transmission attempt waits DIFS plus a uniform backoff in
//     [0, CW] slots from the instant the medium frees.
//   - Collision probability per attempt is Bianchi-flavored:
//     p = 1-(1-tau)^(n-1) with tau = 2/(CW+2), where n is the
//     configured station count — more stations collide more, and a
//     station that has backed off (larger CW) collides less. A
//     collision wastes the aggregate's airtime (no ACK), doubles CW up
//     to CWmax, and retries up to RetryLimit before dropping the whole
//     aggregate.
//   - Aggregation drains up to MaxAggFrames frames from the queue into
//     one TXOP; the per-TXOP overhead (preamble, backoff, block-ACK)
//     is then amortized over the aggregate, which is why aggregation
//     changes the effective service rate so strongly.
//
// All randomness comes from one seeded stream per link, so cells are
// bit-reproducible; the single owned transmit timer keeps the per-TXOP
// event cost allocation-free, and delivered subframes propagate on a
// netem.DelayLine, so a link costs the engine's heap two entries
// however many frames it has in flight.
package mac

import (
	"math"
	"time"

	"bufferqoe/internal/netem"
	"bufferqoe/internal/sim"
)

// 802.11n-flavored MAC/PHY timing constants (simplified OFDM values).
const (
	Slot     = 9 * time.Microsecond
	DIFS     = 34 * time.Microsecond
	SIFS     = 16 * time.Microsecond
	Preamble = 40 * time.Microsecond // PLCP preamble + header per PPDU
	BlockAck = 32 * time.Microsecond // compressed block-ACK airtime

	CWMin = 15
	CWMax = 1023

	// FrameOverhead is the per-subframe MAC cost in bytes (MAC header
	// plus A-MPDU delimiter and padding).
	FrameOverhead = 40
)

// Default knob values, applied by Params.WithDefaults.
const (
	DefaultRetryLimit   = 7
	DefaultMaxAggFrames = 16
)

// Params configures one WifiLink.
type Params struct {
	// PhyRate is the air data rate in bits/s.
	PhyRate float64
	// Delay is the one-way propagation delay applied after a
	// successful transmission (the wired path beyond the AP).
	Delay time.Duration
	// Stations is the number of stations contending for the medium;
	// it drives the collision probability. 1 means no collisions.
	Stations int
	// RetryLimit is the per-aggregate retry budget before the frames
	// are dropped (802.11 dot11LongRetryLimit-style).
	RetryLimit int
	// MaxAggFrames caps the subframes batched into one A-MPDU TXOP;
	// 1 disables aggregation.
	MaxAggFrames int
}

// WithDefaults fills zero knobs with the 802.11 defaults.
func (p Params) WithDefaults() Params {
	if p.Stations <= 0 {
		p.Stations = 1
	}
	if p.RetryLimit <= 0 {
		p.RetryLimit = DefaultRetryLimit
	}
	if p.MaxAggFrames <= 0 {
		p.MaxAggFrames = DefaultMaxAggFrames
	}
	return p
}

// Medium is the shared radio channel: it remembers when the air goes
// idle so the links contending on it serialize their TXOPs. One Medium
// per cell (BSS); both directions of the last hop share it.
type Medium struct {
	free sim.Time
}

// NewMedium returns an idle medium.
func NewMedium() *Medium { return &Medium{} }

// Reset rewinds the medium to idle for carcass reuse.
func (m *Medium) Reset() { m.free = 0 }

// WifiLink is the 802.11 last-hop egress: packets wait in Queue (the
// bottleneck buffer under test), are batched into aggregates, contend
// for the shared Medium, and — after winning it without collision —
// propagate for Delay before delivery. It slots in wherever a wired
// netem.Link sits: it implements netem.Egress for routing tables,
// netem.Receiver for chaining, and netem.RatedCarrier for the link
// monitor (utilization is reported against the raw PHY rate, so MAC
// overhead and collisions show up as the utilization ceiling they
// really are).
type WifiLink struct {
	Name string
	Params

	// Queue is the bottleneck buffer in front of the MAC.
	Queue netem.Queue
	// Monitor observes successfully transmitted frames (nil = off).
	Monitor *netem.LinkMonitor
	// Tap, if non-nil, observes every successfully transmitted frame.
	Tap func(p *netem.Packet, at sim.Time)

	// Counters for tests and experiments.
	TxFrames     uint64 // frames delivered over the air
	TxAggregates uint64 // TXOPs won without collision
	Collisions   uint64 // TXOP attempts lost to a collision
	RetryDrops   uint64 // frames dropped after RetryLimit collisions

	eng *sim.Engine
	rng *sim.RNG
	med *Medium

	busy     bool
	cw       int
	retries  int
	collided bool
	agg      []*netem.Packet
	txTimer  sim.Timer       // owned: fires when the current TXOP's airtime ends
	line     netem.DelayLine // delivered subframes propagating toward the receiver
}

// NewWifiLink creates a wifi last hop feeding dst through queue,
// contending on med. The RNG stream must be private to this link.
func NewWifiLink(eng *sim.Engine, name string, p Params, rng *sim.RNG, queue netem.Queue, med *Medium, dst netem.Receiver) *WifiLink {
	w := &WifiLink{
		Name:   name,
		Params: p.WithDefaults(),
		Queue:  queue,
		eng:    eng,
		rng:    rng,
		med:    med,
		cw:     CWMin,
		agg:    make([]*netem.Packet, 0, DefaultMaxAggFrames),
	}
	eng.InitTimer(&w.txTimer, w)
	w.line.Init(eng, dst)
	return w
}

// Reset returns the link to its never-used state for carcass reuse
// with the next cell's parameters, mirroring NewWifiLink (the owned
// timer was already unhooked by the engine's Reset). The aggregate in
// service, the frames in flight and, as in netem.Link.Reset, the
// outgoing drop-tail queue's content are released back to the pool.
func (w *WifiLink) Reset(p Params, rng *sim.RNG, queue netem.Queue) {
	for _, pk := range w.agg {
		pk.Release()
	}
	w.agg = w.agg[:0]
	w.line.Reset()
	if dt, ok := w.Queue.(*netem.DropTail); ok {
		dt.Reset()
	}
	w.Params = p.WithDefaults()
	w.Queue = queue
	w.Monitor, w.Tap = nil, nil
	w.TxFrames, w.TxAggregates, w.Collisions, w.RetryDrops = 0, 0, 0, 0
	w.rng = rng
	w.busy, w.collided = false, false
	w.cw, w.retries = CWMin, 0
}

// NominalRate implements netem.RatedCarrier: the raw PHY rate.
func (w *WifiLink) NominalRate() float64 { return w.PhyRate }

// AttachMonitor wires a caller-owned monitor to the link, replacing
// any current one (the wifi counterpart of Link.AttachMonitor).
func (w *WifiLink) AttachMonitor(m *netem.LinkMonitor) *netem.LinkMonitor {
	m.Attach(w.Name, w)
	w.Monitor = m
	return m
}

// EnsureMonitor attaches (or returns the existing) LinkMonitor.
func (w *WifiLink) EnsureMonitor() *netem.LinkMonitor {
	if w.Monitor == nil {
		w.Monitor = &netem.LinkMonitor{}
		w.Monitor.Attach(w.Name, w)
	}
	return w.Monitor
}

// Send implements netem.Egress: offer a packet to the bottleneck
// queue and kick the MAC if idle.
//
//qoe:hotpath
func (w *WifiLink) Send(p *netem.Packet) bool {
	if !w.Queue.Enqueue(p, w.eng.Now()) {
		p.Release()
		return false
	}
	if !w.busy {
		w.startTxop()
	}
	return true
}

// Receive implements netem.Receiver so the link can terminate a wired
// hop (delivery acceptance is unreported upstream, as with any
// receiver: a queue-full drop is the bottleneck doing its job).
func (w *WifiLink) Receive(p *netem.Packet) { w.Send(p) }

// startTxop drains up to MaxAggFrames frames into one aggregate and
// begins contending for the medium.
//
//qoe:hotpath
func (w *WifiLink) startTxop() {
	now := w.eng.Now()
	for len(w.agg) < w.MaxAggFrames {
		p := w.Queue.Dequeue(now)
		if p == nil {
			break
		}
		w.agg = append(w.agg, p)
	}
	if len(w.agg) == 0 {
		w.busy = false
		return
	}
	w.busy = true
	w.contend()
}

// contend schedules the end of the next transmission attempt: DIFS
// plus a uniform backoff from when the medium frees, then the
// aggregate's airtime. The collision outcome is drawn up front (the
// model needs no per-slot events), and the medium is held for the
// attempt either way — colliding transmissions occupy air too.
//
//qoe:hotpath
func (w *WifiLink) contend() {
	start := w.med.free
	if now := w.eng.Now(); now > start {
		start = now
	}
	slots := w.rng.IntN(w.cw + 1)
	start = start.Add(DIFS + time.Duration(slots)*Slot)

	w.collided = w.collisionDraw()
	end := start.Add(w.airtime(!w.collided))
	w.med.free = end
	w.txTimer.ResetAt(end)
}

// collisionDraw decides the fate of one attempt: p = 1-(1-tau)^(n-1)
// with tau = 2/(CW+2). Stations that have backed off (larger CW)
// transmit less aggressively and collide less — the stabilizing
// feedback of DCF, without per-station simulation.
func (w *WifiLink) collisionDraw() bool {
	if w.Stations <= 1 {
		return false
	}
	tau := 2.0 / float64(w.cw+2)
	p := 1 - math.Pow(1-tau, float64(w.Stations-1))
	return w.rng.Bool(p)
}

// airtime returns how long the current aggregate occupies the medium:
// preamble plus serialized MAC-framed bytes, plus SIFS and block-ACK
// on success (a collision is never acknowledged).
func (w *WifiLink) airtime(success bool) time.Duration {
	bytes := 0
	for _, p := range w.agg {
		bytes += p.Size + FrameOverhead
	}
	d := Preamble + time.Duration(float64(bytes*8)/w.PhyRate*float64(time.Second))
	if success {
		d += SIFS + BlockAck
	}
	return d
}

// Fire implements sim.Handler: the current attempt's airtime ended.
//
//qoe:hotpath
func (w *WifiLink) Fire(now sim.Time) {
	if w.collided {
		w.Collisions++
		w.retries++
		if w.retries > w.RetryLimit {
			// Retry budget exhausted: the aggregate is lost. This is
			// the wifi-specific loss process the buffer never sees —
			// the frames were dequeued long ago.
			w.RetryDrops += uint64(len(w.agg))
			for _, p := range w.agg {
				p.Release()
			}
			w.agg = w.agg[:0]
			w.cw, w.retries = CWMin, 0
			w.startTxop()
			return
		}
		w.cw = min(2*w.cw+1, CWMax)
		w.contend()
		return
	}
	// Success: deliver every subframe after the propagation delay.
	for _, p := range w.agg {
		if w.Monitor != nil {
			w.Monitor.NoteTransmit(p)
		}
		if w.Tap != nil {
			w.Tap(p, now)
		}
		w.line.Push(p, now.Add(w.Delay))
	}
	w.TxFrames += uint64(len(w.agg))
	w.TxAggregates++
	w.agg = w.agg[:0]
	w.cw, w.retries = CWMin, 0
	w.startTxop()
}

// TransmissionTime returns the airtime of a single unaggregated frame
// of the given payload size, including per-TXOP overhead — the wifi
// analogue of Link.TransmissionTime.
func (w *WifiLink) TransmissionTime(size int) time.Duration {
	bits := float64((size + FrameOverhead) * 8)
	return Preamble + time.Duration(bits/w.PhyRate*float64(time.Second)) + SIFS + BlockAck
}
