// Package voip models the paper's VoIP measurement application: a
// PjSIP-style RTP/UDP sender streaming 8-second G.711 speech samples
// (20 ms frames, 160-byte payloads, 50 packets/s), a receiver with a
// fixed playout (jitter) buffer that conceals lost and late frames,
// and the combined QoE evaluation of Section 7.1: a PESQ-style signal
// score z1 and the E-Model delay impairment z2 merged into one MOS.
package voip

import (
	"time"

	"bufferqoe/internal/media"
	"bufferqoe/internal/netem"
	"bufferqoe/internal/qoe"
	"bufferqoe/internal/sim"
)

// Wire framing of one RTP voice packet: 160 B G.711 payload + RTP +
// UDP + IP headers.
const packetSize = 160 + netem.RTPHeader + netem.UDPHeader + netem.IPHeader

// FrameInterval is the packetization interval.
const FrameInterval = 20 * time.Millisecond

// DefaultPlayout is the receiver's fixed jitter-buffer depth.
const DefaultPlayout = 60 * time.Millisecond

// Activity returns the activity mask of recording i of the reference
// speech set of seed (media.LibrarySample): one entry per 20 ms frame,
// true where the frame is speech, bit-equal to qoe.SpeechActivity of
// the recording. A call streams one frame per entry and is scored from
// the mask alone, so the recording's PCM is never built: the mask
// walks the recording's segments and evaluates a frame's samples only
// until qoe.FrameActive decides it (media.LibraryActivity).
func Activity(seed uint64, i int) []bool {
	return media.LibraryActivity(seed, i, qoe.FrameActive)
}

// rtp is the payload attached to each simulated voice packet.
type rtp struct {
	seq  int
	call *Call
}

// Result summarizes one call's QoE evaluation.
type Result struct {
	// Z1 is the signal-quality MOS from the PESQ-style comparator.
	Z1 float64
	// MOS is the final combined score (Section 7.1's z mapped to MOS).
	MOS float64
	// OneWayDelay is the mean mouth-to-ear delay (network + playout +
	// packetization) used for the delay impairment z2.
	OneWayDelay time.Duration
	// Sent / Lost / Late count RTP packets; Lost never arrived, Late
	// arrived after their playout deadline (both are concealed).
	Sent, Lost, Late int
}

// LossPct returns the application-layer loss percentage (lost + late).
func (r Result) LossPct() float64 {
	if r.Sent == 0 {
		return 0
	}
	return 100 * float64(r.Lost+r.Late) / float64(r.Sent)
}

// Call is one in-flight voice transmission.
type Call struct {
	eng      *sim.Engine
	active   []bool // the recording's activity mask, one entry per frame
	from     *netem.Node
	to       *netem.Node
	fromP    uint16
	toP      uint16
	playout  time.Duration
	adaptive bool
	start    sim.Time

	arrivals []sim.Time // per-frame arrival, 0 = not (yet) received
	received []bool
	rtps     []rtp // preallocated per-frame payloads
	onDone   func(Result)

	// The sender is self-clocked: frame i leaves at sendTime(i) under
	// sequence number seq0+i, reserved at call start, and one owned
	// timer walks the frames — the heap holds the next tick, not the
	// whole call.
	sendTimer sim.Timer
	seq0      uint64
	next      int // frame the armed tick sends
}

// Fire implements sim.Handler: frame c.next's send tick. The next
// tick is armed before the frame enters the network.
//
//qoe:hotpath
func (c *Call) Fire(now sim.Time) {
	i := c.next
	c.next++
	c.armSend()
	c.sendFrame(&c.rtps[i])
}

// armSend arms the send timer for frame c.next under its reserved
// sequence number; after the last frame it stays unarmed.
//
//qoe:hotpath
func (c *Call) armSend() {
	if c.next < len(c.rtps) {
		c.sendTimer.ResetAtSeq(c.sendTime(c.next), c.seq0+uint64(c.next))
	}
}

// callEnd is the drain deadline's handler: evaluate the call.
type callEnd struct{ *Call }

func (e callEnd) Fire(sim.Time) { e.finish() }

// StartAdaptive streams a call whose receiver uses a Ramjee-style
// adaptive playout buffer (EWMA delay estimate plus four deviations)
// instead of the fixed jitter buffer — the behaviour of the paper's
// PjSIP receiver. The fixed playout value is kept as a floor.
func StartAdaptive(from, to *netem.Node, active []bool, onDone func(Result)) *Call {
	c := Start(from, to, active, 0, onDone)
	c.adaptive = true
	return c
}

// Start streams a recording from -> to, one frame per entry of its
// activity mask (see Activity), and invokes onDone with the QoE result
// once the call (plus playout drain) completes. playout <= 0 uses
// DefaultPlayout.
func Start(from, to *netem.Node, active []bool, playout time.Duration, onDone func(Result)) *Call {
	if playout <= 0 {
		playout = DefaultPlayout
	}
	eng := from.Engine()
	c := &Call{
		eng:      eng,
		active:   active,
		from:     from,
		to:       to,
		fromP:    from.AllocPort(netem.ProtoUDP),
		toP:      to.AllocPort(netem.ProtoUDP),
		playout:  playout,
		start:    eng.Now(),
		arrivals: make([]sim.Time, len(active)),
		received: make([]bool, len(active)),
		onDone:   onDone,
	}
	// The sender binds too so the port pair is reserved symmetrically.
	from.Bind(netem.ProtoUDP, c.fromP, netem.HandlerFunc(func(*netem.Packet) {}))
	to.Bind(netem.ProtoUDP, c.toP, netem.HandlerFunc(c.receive))

	n := len(active)
	c.rtps = make([]rtp, n)
	for i := range c.rtps {
		c.rtps[i] = rtp{seq: i, call: c}
	}
	eng.InitTimer(&c.sendTimer, c)
	c.seq0 = eng.ReserveSeq(n)
	c.armSend()
	eng.ScheduleHandler(CallLength(n, playout), callEnd{c})
	return c
}

// CallLength is how long after its start a call of the given number of
// frames and playout delay reports its result: after the last frame's
// playout deadline plus a generous network drain.
func CallLength(frames int, playout time.Duration) time.Duration {
	return time.Duration(frames)*FrameInterval + playout + 5*time.Second
}

func (c *Call) sendFrame(r *rtp) {
	p := c.from.Network().NewPacket()
	p.Flow = netem.Flow{
		Proto: netem.ProtoUDP,
		Src:   c.from.Addr(c.fromP),
		Dst:   c.to.Addr(c.toP),
	}
	p.Size = packetSize
	p.Payload = r
	c.from.Send(p)
}

func (c *Call) receive(p *netem.Packet) {
	r, ok := p.Payload.(*rtp)
	if !ok || r.call != c || r.seq < 0 || r.seq >= len(c.arrivals) {
		return
	}
	if !c.received[r.seq] {
		c.received[r.seq] = true
		c.arrivals[r.seq] = c.eng.Now()
	}
}

// sendTime returns when frame i left the sender.
func (c *Call) sendTime(i int) sim.Time {
	return c.start.Add(time.Duration(i) * FrameInterval)
}

func (c *Call) finish() {
	c.from.Unbind(netem.ProtoUDP, c.fromP)
	c.to.Unbind(netem.ProtoUDP, c.toP)

	n := len(c.active)
	res := Result{Sent: n}

	// Playout schedule: the receiver anchors its clock to the first
	// received frame, then plays one frame every 20 ms after the
	// jitter buffer depth.
	var t0 sim.Time
	anchored := false
	for i := 0; i < n; i++ {
		if c.received[i] {
			t0 = c.arrivals[i] - sim.Time(time.Duration(i)*FrameInterval)
			anchored = true
			break
		}
	}

	// Every frame is played out as sent or concealed by silence, so
	// the played mask is the whole degraded signal (qoe.PlayoutQuality).
	played := make([]bool, n)
	var delaySum time.Duration
	var delayN int

	// Adaptive playout state (Ramjee et al., INFOCOM 1994 algorithm
	// 1): track an EWMA of the one-way delay and its deviation from
	// already-played frames, and schedule playout at d+4v. The fixed
	// buffer depth acts as a floor.
	var dHat, vHat float64 // seconds
	adaptInit := false
	var budgetSum float64 // effective buffer depth actually applied
	var budgetN int

	for i := 0; i < n; i++ {
		if !c.received[i] {
			res.Lost++
			continue // concealment: silence
		}
		netDelay := c.arrivals[i].Sub(c.sendTime(i))
		budget := c.playout
		if c.adaptive {
			if !adaptInit {
				dHat = netDelay.Seconds()
				vHat = dHat / 4
				adaptInit = true
			}
			adaptBudget := time.Duration((dHat + 4*vHat) * float64(time.Second))
			if adaptBudget > budget {
				budget = adaptBudget
			}
			// Update the estimators with this frame's delay (causal:
			// affects later frames only).
			const alpha = 0.9
			d := netDelay.Seconds()
			vHat = alpha*vHat + (1-alpha)*abs(dHat-d)
			dHat = alpha*dHat + (1-alpha)*d
		}
		budgetSum += budget.Seconds()
		budgetN++
		deadline := c.sendTime(i).Add(budget)
		if !c.adaptive {
			deadline = t0.Add(time.Duration(i)*FrameInterval + budget)
		}
		if c.arrivals[i] > deadline {
			res.Late++
			continue
		}
		played[i] = true
		delaySum += netDelay
		delayN++
	}

	res.Z1 = qoe.PlayoutQuality(c.active, played)
	if anchored && delayN > 0 {
		// Mouth-to-ear: network + jitter buffer + one packetization
		// interval. For the adaptive receiver the buffer term is the
		// mean applied budget beyond the network delay.
		buffer := c.playout
		if c.adaptive && budgetN > 0 {
			mean := time.Duration(budgetSum / float64(budgetN) * float64(time.Second))
			net := delaySum / time.Duration(delayN)
			if mean > net {
				buffer = mean - net
			} else {
				buffer = 0
			}
		}
		res.OneWayDelay = delaySum/time.Duration(delayN) + buffer + FrameInterval
	} else {
		// Nothing played out: the "conversation" is effectively dead.
		res.OneWayDelay = 10 * time.Second
	}
	res.MOS = qoe.VoIPScore(res.Z1, res.OneWayDelay)
	if c.onDone != nil {
		c.onDone(res)
	}
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
