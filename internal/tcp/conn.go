package tcp

import (
	"math"
	"time"

	"bufferqoe/internal/netem"
	"bufferqoe/internal/sim"
)

// State is the connection state, a reduced TCP state machine
// sufficient for the study's workloads.
type State int

// Connection states.
const (
	StateSynSent State = iota
	StateSynReceived
	StateEstablished
	StateClosing // FIN sent and/or received, draining
	StateClosed
)

func (s State) String() string {
	switch s {
	case StateSynSent:
		return "syn-sent"
	case StateSynReceived:
		return "syn-received"
	case StateEstablished:
		return "established"
	case StateClosing:
		return "closing"
	case StateClosed:
		return "closed"
	default:
		return "unknown"
	}
}

// Stats are per-connection counters exposed to applications and the
// experiment harness (the paper's tcpcsm-style analysis).
type Stats struct {
	BytesSent       int64 // payload bytes transmitted (incl. retransmits)
	BytesAcked      int64 // payload bytes cumulatively acked
	BytesReceived   int64 // in-order payload bytes delivered
	SegmentsSent    uint64
	SegmentsRcvd    uint64
	Retransmissions uint64
	Timeouts        uint64
	FastRetransmits uint64
	RTTSamples      uint64
	ECNReductions   uint64 // window reductions triggered by ECN-Echo
	EstablishedAt   sim.Time
	ClosedAt        sim.Time
}

// Conn is one TCP connection endpoint.
type Conn struct {
	stack *Stack
	eng   *sim.Engine
	flow  netem.Flow // local -> remote
	state State
	cfg   Config
	cc    CongestionControl

	// Sender state.
	sndUna     int64 // oldest unacknowledged byte
	sndNxt     int64 // next byte to send
	sndLimit   int64 // application stream length so far
	infinite   bool  // application has unbounded data
	finQueued  bool  // application closed its write side
	finSent    bool
	finAcked   bool
	cwnd       float64
	ssthresh   float64
	rwndPeer   int64
	dupAcks    int
	inRecovery bool
	recoverTo  int64
	// SACK sender state: ranges the peer holds out of order, and the
	// hole-retransmission cursor.
	sacked       intervalSet
	sackRetxNext int64
	rto          time.Duration
	srtt         time.Duration
	rttvar       time.Duration
	backoff      int
	synTries     int

	// Owned reschedulable timers (and their Fire adapters), embedded so
	// arming a retransmission or delayed-ACK deadline never allocates —
	// these are by far the highest-frequency timers in a congested cell.
	rtoTimer    sim.Timer
	delackTimer sim.Timer
	paceTimer   sim.Timer
	rtoF        rtoFirer
	delackF     delackFirer
	paceF       paceFirer

	// Pacing state: pacer is the congestion control's Pacer extension
	// (nil for unpaced algorithms — the nil path is byte-identical to a
	// connection without the hook), paceNext the earliest time trySend
	// may emit the next new-data segment.
	pacer    Pacer
	paceNext sim.Time

	// ECN state (RFC 3168). ecnOK is set when both ends negotiated
	// ECN; the sender reduces once per window on ECE and confirms with
	// CWR; the receiver echoes CE marks while ecnEchoing.
	ecnOK         bool
	ecnEchoing    bool
	ecnCWRPending bool
	ecnReactedTo  int64

	// Receiver state.
	rcvNxt      int64
	ooo         intervalSet
	finSeqPeer  int64 // -1 until peer's FIN seen
	finRcvd     bool  // peer FIN processed (rcvNxt passed it)
	tsRecent    sim.Time
	unackedSegs int

	// Application callbacks. All are optional.
	OnEstablished func()
	OnReadable    func(newBytes int64) // in-order payload delivered
	// OnPeerClose fires when the peer's FIN is consumed. It receives
	// the connection so sinks can install one shared function (e.g.
	// the (*Conn).CloseWrite method expression) instead of allocating
	// a capturing closure per accepted connection.
	OnPeerClose func(*Conn)
	OnClose     func(err error) // fully closed or aborted

	// Err records an abort reason (e.g. handshake failure).
	Err error

	// Stat accumulates counters.
	Stat Stats
}

// rtoFirer and delackFirer adapt the connection's two owned timers to
// sim.Handler with distinct Fire targets.
type rtoFirer struct{ c *Conn }

func (f *rtoFirer) Fire(now sim.Time) { f.c.onTimeout() }

type delackFirer struct{ c *Conn }

func (f *delackFirer) Fire(now sim.Time) { f.c.onDelack() }

type paceFirer struct{ c *Conn }

func (f *paceFirer) Fire(now sim.Time) { f.c.trySend() }

// connError is a minimal error type for aborts.
type connError string

func (e connError) Error() string { return string(e) }

// ErrHandshakeTimeout is reported when SYN retries are exhausted.
const ErrHandshakeTimeout = connError("tcp: handshake timeout")

// ErrRetriesExceeded is reported when consecutive data retransmission
// timeouts exhaust the retry budget (peer unreachable or gone).
const ErrRetriesExceeded = connError("tcp: retransmission retries exceeded")

// LocalAddr returns the local endpoint address.
func (c *Conn) LocalAddr() netem.Addr { return c.flow.Src }

// RemoteAddr returns the remote endpoint address.
func (c *Conn) RemoteAddr() netem.Addr { return c.flow.Dst }

// State returns the current connection state.
func (c *Conn) State() State { return c.state }

// SRTT returns the smoothed round-trip time estimate.
func (c *Conn) SRTT() time.Duration { return c.srtt }

// Cwnd returns the current congestion window in bytes.
func (c *Conn) Cwnd() float64 { return c.cwnd }

// Send appends n bytes to the outgoing stream.
func (c *Conn) Send(n int64) {
	if n <= 0 || c.finQueued || c.state == StateClosed {
		return
	}
	c.sndLimit += n
	c.trySend()
}

// SendInfinite marks the stream as unbounded (the paper's long-lived
// "infinite duration" flows). The connection transmits as fast as
// congestion control allows until the simulation ends.
func (c *Conn) SendInfinite() {
	c.infinite = true
	c.trySend()
}

// CloseWrite half-closes the connection: a FIN is sent once all queued
// data has been transmitted and acknowledged by the window.
func (c *Conn) CloseWrite() {
	if c.finQueued || c.infinite {
		return
	}
	c.finQueued = true
	c.trySend()
}

// dataEnd returns the stream length limit for the sender.
func (c *Conn) dataEnd() int64 {
	if c.infinite {
		return math.MaxInt64 / 2
	}
	return c.sndLimit
}

// inflight returns the number of unacknowledged bytes.
func (c *Conn) inflight() float64 { return float64(c.sndNxt - c.sndUna) }

// --- segment emission -------------------------------------------------

//qoe:hotpath
func (c *Conn) emit(seg *Segment) {
	seg.Wnd = c.cfg.RcvWnd
	seg.TSval = c.eng.Now()
	seg.TSecr = c.tsRecent
	if c.ecnOK {
		if seg.ACK && c.ecnEchoing {
			seg.ECE = true
		}
		if c.ecnCWRPending && seg.Len > 0 {
			seg.CWR = true
			c.ecnCWRPending = false
		}
	}
	pkt := c.stack.node.Network().NewPacket()
	pkt.Flow = c.flow
	pkt.Size = seg.wireSize()
	pkt.Payload = seg
	// Only data segments are ECN-capable (RFC 3168 §6.1.5: pure
	// ACKs are sent non-ECT).
	pkt.ECT = c.ecnOK && seg.Len > 0
	c.Stat.SegmentsSent++
	c.stack.segsSent++
	c.stack.node.Send(pkt)
}

func (c *Conn) sendSyn(withAck bool) {
	setup := c.cfg.ECN
	if withAck {
		// Server side: confirm only if the client offered and our
		// stack is ECN-enabled (ecnOK was decided at SYN receipt).
		setup = c.ecnOK
	}
	seg := newSegment()
	seg.SYN, seg.ACK, seg.Ack, seg.ECNSetup = true, withAck, c.rcvNxt, setup
	c.emit(seg)
	c.synTries++
	c.armRTO()
}

//qoe:hotpath
func (c *Conn) sendAck() {
	c.stopDelack()
	c.unackedSegs = 0
	seg := newSegment()
	seg.ACK, seg.Ack = true, c.ackValue()
	if c.cfg.SACK && !c.ooo.empty() {
		// Report the most recent out-of-order blocks (up to three,
		// as real option space allows with timestamps).
		for i := len(c.ooo.iv) - 1; i >= 0 && len(seg.SACK) < 3; i-- {
			seg.SACK = append(seg.SACK, SACKBlock{c.ooo.iv[i].start, c.ooo.iv[i].end})
		}
	}
	c.emit(seg)
}

// retransmitOneSACK retransmits the first unsacked hole at or above
// max(sndUna, sackRetxNext), bounded by the next sacked block and by
// the recovery point (data above recoverTo has no loss evidence yet).
// It reports whether a hole was retransmitted.
func (c *Conn) retransmitOneSACK() bool {
	start := c.sndUna
	if c.sackRetxNext > start {
		start = c.sackRetxNext
	}
	for _, iv := range c.sacked.iv {
		if iv.end <= start {
			continue
		}
		if iv.start <= start {
			start = iv.end
			continue
		}
		break
	}
	limit := c.sndNxt
	if c.inRecovery && c.recoverTo < limit {
		limit = c.recoverTo
	}
	if start >= limit {
		return false
	}
	n := min64(int64(c.cfg.MSS), min64(c.dataEnd()-start, limit-start))
	for _, iv := range c.sacked.iv {
		if iv.start > start && iv.start-start < n {
			n = iv.start - start
		}
	}
	if n <= 0 {
		return false
	}
	seg := newSegment()
	seg.Seq, seg.Len, seg.ACK, seg.Ack = start, int(n), true, c.ackValue()
	c.emit(seg)
	c.Stat.BytesSent += n
	c.sackRetxNext = start + n
	return true
}

// ackValue returns the cumulative ack, counting the peer's FIN as one
// sequence unit once consumed.
func (c *Conn) ackValue() int64 {
	if c.finRcvd {
		return c.finSeqPeer + 1
	}
	return c.rcvNxt
}

// trySend transmits as much as the congestion and peer windows allow.
// Paced connections additionally space new-data segments by the
// pacer's interval, parking on the owned pace timer when ahead of
// schedule; retransmissions (which go through retransmitOne*) are
// never paced.
//
//qoe:hotpath
func (c *Conn) trySend() {
	if c.state != StateEstablished && c.state != StateClosing {
		return
	}
	mss := int64(c.cfg.MSS)
	for {
		wnd := int64(c.cwnd)
		if c.rwndPeer < wnd {
			wnd = c.rwndPeer
		}
		room := c.sndUna + wnd - c.sndNxt
		avail := c.dataEnd() - c.sndNxt
		if avail > 0 && room > 0 {
			if c.pacer != nil {
				if now := c.eng.Now(); now < c.paceNext {
					if !c.paceTimer.Armed() {
						c.paceTimer.ResetAt(c.paceNext)
					}
					return
				}
			}
			n := min64(mss, min64(avail, room))
			// Avoid silly-window tinygrams: send sub-MSS only if it
			// finishes the stream.
			if n < mss && n < avail {
				return
			}
			seg := newSegment()
			seg.Seq, seg.Len, seg.ACK, seg.Ack = c.sndNxt, int(n), true, c.ackValue()
			c.emit(seg)
			c.Stat.BytesSent += n
			c.sndNxt += n
			c.armRTO()
			if c.pacer != nil {
				if iv := c.pacer.PacingInterval(c, n); iv > 0 {
					base := c.eng.Now()
					if c.paceNext > base {
						base = c.paceNext
					}
					c.paceNext = base.Add(iv)
				}
			}
			continue
		}
		// FIN transmission once the stream is fully sent.
		if c.finQueued && !c.finSent && avail == 0 && room > 0 {
			seg := newSegment()
			seg.Seq, seg.FIN, seg.ACK, seg.Ack = c.sndNxt, true, true, c.ackValue()
			c.emit(seg)
			c.finSent = true
			c.sndNxt++ // FIN consumes one sequence unit
			c.armRTO()
			if c.state == StateEstablished {
				c.state = StateClosing
			}
		}
		return
	}
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

// --- retransmission timer ----------------------------------------------

func (c *Conn) armRTO() {
	if c.rtoTimer.Armed() {
		return
	}
	c.startRTO()
}

func (c *Conn) startRTO() {
	d := c.rto << c.backoff
	if d > c.cfg.MaxRTO {
		d = c.cfg.MaxRTO
	}
	c.rtoTimer.Reset(d)
}

func (c *Conn) stopRTO() {
	c.rtoTimer.Stop()
}

func (c *Conn) onTimeout() {
	switch c.state {
	case StateSynSent, StateSynReceived:
		if c.synTries > c.cfg.MaxSynRetries {
			c.abort(ErrHandshakeTimeout)
			return
		}
		c.backoff++
		c.sendSyn(c.state == StateSynReceived)
		return
	case StateClosed:
		return
	}
	if c.sndUna >= c.sndNxt {
		return // nothing outstanding
	}
	if c.backoff >= c.cfg.MaxRetries {
		c.abort(ErrRetriesExceeded)
		return
	}
	// RTO: collapse to slow start and go-back-N from sndUna.
	c.Stat.Timeouts++
	c.Stat.Retransmissions++
	c.cc.OnTimeout(c, c.eng.Now())
	c.cwnd = float64(c.cfg.MSS)
	c.inRecovery = false
	c.dupAcks = 0
	c.backoff++
	// Discard SACK state: after a timeout the model goes back-N, so
	// stale scoreboard entries would only suppress needed resends.
	c.sacked = intervalSet{}
	c.sackRetxNext = 0
	c.retransmitOne()
	c.sndNxt = c.retransmitHigh()
	// If the collapse rewound past an already-sent FIN, allow trySend
	// to emit it again once the data drains.
	if c.finSent && !c.finAcked && c.sndNxt <= c.sndLimit {
		c.finSent = false
	}
	c.startRTO()
}

// retransmitHigh returns where sndNxt should sit after a go-back-N
// retransmit of the first segment: just past the retransmitted data.
func (c *Conn) retransmitHigh() int64 {
	n := min64(int64(c.cfg.MSS), c.dataEnd()-c.sndUna)
	if n <= 0 {
		return c.sndUna + 1 // FIN retransmit
	}
	return c.sndUna + n
}

// retransmitOne resends one segment starting at sndUna.
func (c *Conn) retransmitOne() {
	n := min64(int64(c.cfg.MSS), c.dataEnd()-c.sndUna)
	if n > 0 {
		seg := newSegment()
		seg.Seq, seg.Len, seg.ACK, seg.Ack = c.sndUna, int(n), true, c.ackValue()
		c.emit(seg)
		c.Stat.BytesSent += n
		return
	}
	if c.finSent {
		seg := newSegment()
		seg.Seq, seg.FIN, seg.ACK, seg.Ack = c.sndUna, true, true, c.ackValue()
		c.emit(seg)
	}
}

// --- delayed acks -------------------------------------------------------

func (c *Conn) scheduleDelack() {
	if c.delackTimer.Armed() {
		return
	}
	c.delackTimer.Reset(c.cfg.DelAckDelay)
}

func (c *Conn) onDelack() {
	if c.unackedSegs > 0 {
		c.sendAck()
	}
}

func (c *Conn) stopDelack() {
	c.delackTimer.Stop()
}

// --- RTT estimation (RFC 6298) ------------------------------------------

func (c *Conn) sampleRTT(tsecr sim.Time) {
	if tsecr <= 0 {
		return
	}
	r := c.eng.Now().Sub(tsecr)
	if r < 0 {
		return
	}
	c.Stat.RTTSamples++
	if c.srtt == 0 {
		c.srtt = r
		c.rttvar = r / 2
	} else {
		d := c.srtt - r
		if d < 0 {
			d = -d
		}
		c.rttvar = (3*c.rttvar + d) / 4
		c.srtt = (7*c.srtt + r) / 8
	}
	rto := c.srtt + 4*c.rttvar
	if rto < c.cfg.MinRTO {
		rto = c.cfg.MinRTO
	}
	if rto > c.cfg.MaxRTO {
		rto = c.cfg.MaxRTO
	}
	c.rto = rto
}

// --- segment processing ---------------------------------------------------

// handleSegment processes one inbound segment addressed to this
// connection.
//
//qoe:hotpath
func (c *Conn) handleSegment(seg *Segment) {
	if c.state == StateClosed {
		return
	}
	c.Stat.SegmentsRcvd++

	switch c.state {
	case StateSynSent:
		if seg.SYN && seg.ACK {
			c.tsRecent = seg.TSval
			c.ecnOK = c.cfg.ECN && seg.ECNSetup
			c.sampleRTT(seg.TSecr)
			c.becomeEstablished()
			c.sendAck()
			c.trySend()
		}
		return
	case StateSynReceived:
		if seg.SYN {
			// Duplicate SYN: re-answer.
			resp := newSegment()
			resp.SYN, resp.ACK, resp.Ack = true, true, c.rcvNxt
			c.emit(resp)
			return
		}
		if seg.ACK {
			c.stopRTO()
			c.backoff = 0
			c.sampleRTT(seg.TSecr)
			c.becomeEstablished()
			// Fall through to normal processing of any data.
		}
	}

	if seg.ACK {
		c.processAck(seg)
	}
	if seg.Len > 0 || seg.FIN {
		c.processData(seg)
	}
	c.maybeFinishClose()
}

func (c *Conn) becomeEstablished() {
	wasServer := c.state == StateSynReceived
	c.state = StateEstablished
	c.stopRTO()
	c.backoff = 0
	c.Stat.EstablishedAt = c.eng.Now()
	c.cwnd = float64(c.cfg.InitialWindow * c.cfg.MSS)
	c.ssthresh = float64(c.cfg.RcvWnd)
	c.cc.OnInit(c)
	_ = wasServer
	if c.OnEstablished != nil {
		c.OnEstablished()
	}
}

//qoe:hotpath
func (c *Conn) processAck(seg *Segment) {
	c.rwndPeer = seg.Wnd
	finSeq := c.sndLimit // FIN occupies [sndLimit, sndLimit+1)

	// ECN-Echo: reduce the congestion window once per window of data
	// (RFC 3168 §6.1.2) without retransmitting anything — the packet
	// was marked, not lost.
	if seg.ECE && c.ecnOK && !c.inRecovery &&
		c.sndUna >= c.ecnReactedTo && c.sndNxt > c.ecnReactedTo {
		c.Stat.ECNReductions++
		c.cc.OnPacketLoss(c, c.eng.Now())
		c.ecnReactedTo = c.sndNxt
		c.ecnCWRPending = true
	}

	if c.cfg.SACK {
		for _, b := range seg.SACK {
			c.sacked.add(b.Start, b.End)
		}
	}

	switch {
	case seg.Ack > c.sndUna:
		acked := seg.Ack - c.sndUna
		c.sndUna = seg.Ack
		if c.sndNxt < c.sndUna {
			c.sndNxt = c.sndUna
		}
		if c.cfg.SACK {
			c.sacked.advance(c.sndUna)
			if c.sackRetxNext < c.sndUna {
				c.sackRetxNext = c.sndUna
			}
		}
		c.Stat.BytesAcked += acked
		c.sampleRTT(seg.TSecr)
		c.backoff = 0
		if c.finSent && !c.finAcked && !c.infinite && seg.Ack >= finSeq+1 {
			c.finAcked = true
			c.Stat.BytesAcked-- // the FIN unit is not payload
		}
		if c.inRecovery {
			if seg.Ack >= c.recoverTo {
				// Full recovery: deflate to ssthresh.
				c.inRecovery = false
				c.dupAcks = 0
				c.cwnd = c.ssthresh
			} else {
				// Partial ack: retransmit the next hole. With SACK
				// the cursor already points past in-flight repairs;
				// without it, go back to the new sndUna.
				if c.cfg.SACK {
					if c.retransmitOneSACK() {
						c.Stat.Retransmissions++
					}
				} else {
					c.Stat.Retransmissions++
					c.retransmitOne()
				}
				c.cwnd = math.Max(c.cwnd-float64(acked)+float64(c.cfg.MSS), float64(c.cfg.MSS))
			}
		} else {
			c.dupAcks = 0
			c.cc.OnAck(c, acked, c.eng.Now())
			if c.cwnd > float64(c.cfg.RcvWnd) {
				c.cwnd = float64(c.cfg.RcvWnd)
			}
		}
		c.stopRTO()
		if c.sndUna < c.sndNxt {
			c.startRTO()
		}
		c.trySend()

	case seg.Ack == c.sndUna && c.sndNxt > c.sndUna && seg.Len == 0 && !seg.FIN:
		// Duplicate ACK.
		c.dupAcks++
		if c.inRecovery {
			// Conservation: each dup ack funds exactly one
			// transmission — preferentially the next scoreboard hole
			// (SACK), otherwise new data via window inflation.
			c.cwnd += float64(c.cfg.MSS)
			if c.cfg.SACK {
				if c.retransmitOneSACK() {
					c.Stat.Retransmissions++
					c.cwnd -= float64(c.cfg.MSS) // the slot is spent
				} else {
					c.trySend()
				}
			} else {
				c.trySend()
			}
		} else if c.dupAcks == c.cfg.DupAckThreshold {
			c.Stat.FastRetransmits++
			c.Stat.Retransmissions++
			c.cc.OnPacketLoss(c, c.eng.Now())
			c.inRecovery = true
			c.recoverTo = c.sndNxt
			if c.cfg.SACK {
				c.sackRetxNext = c.sndUna
				c.retransmitOneSACK()
			} else {
				c.retransmitOne()
			}
			c.cwnd = c.ssthresh + float64(c.cfg.DupAckThreshold*c.cfg.MSS)
			c.stopRTO()
			c.startRTO()
		}
	}
}

//qoe:hotpath
func (c *Conn) processData(seg *Segment) {
	if c.ecnOK {
		// CWR tells us the sender responded; a fresh CE re-arms the
		// echo (evaluated in this order per RFC 3168 §6.1.3).
		if seg.CWR {
			c.ecnEchoing = false
		}
		if seg.CE {
			c.ecnEchoing = true
		}
	}
	if seg.FIN && c.finSeqPeer < 0 {
		c.finSeqPeer = seg.Seq + int64(seg.Len)
	}
	delivered := int64(0)
	if seg.Len > 0 {
		end := seg.Seq + int64(seg.Len)
		if seg.Seq <= c.rcvNxt {
			if end > c.rcvNxt {
				old := c.rcvNxt
				c.rcvNxt = end
				c.rcvNxt = c.ooo.advance(c.rcvNxt)
				delivered = c.rcvNxt - old
			}
			c.tsRecent = seg.TSval
		} else {
			c.ooo.add(seg.Seq, end)
		}
	} else if seg.Seq <= c.rcvNxt {
		c.tsRecent = seg.TSval
	}

	// Peer FIN becomes consumable once all data before it arrived.
	if c.finSeqPeer >= 0 && !c.finRcvd && c.rcvNxt >= c.finSeqPeer {
		c.finRcvd = true
		if c.state == StateEstablished {
			c.state = StateClosing
		}
	}

	if delivered > 0 {
		c.Stat.BytesReceived += delivered
		if c.OnReadable != nil {
			c.OnReadable(delivered)
		}
	}

	inOrder := seg.Seq <= c.rcvNxt && c.ooo.empty() && !c.finRcvd
	switch {
	case c.finRcvd:
		c.sendAck()
		if c.OnPeerClose != nil {
			cb := c.OnPeerClose
			c.OnPeerClose = nil
			cb(c)
		}
	case !inOrder:
		// Out-of-order or filling: immediate (duplicate) ACK.
		c.sendAck()
	default:
		c.unackedSegs++
		if c.unackedSegs >= 2 {
			c.sendAck()
		} else {
			c.scheduleDelack()
		}
	}
}

// maybeFinishClose closes the connection once both directions are
// done: our FIN acked and the peer's FIN received (or we never need to
// receive one because the peer closed first and we acked it).
func (c *Conn) maybeFinishClose() {
	if c.state == StateClosed {
		return
	}
	ourSideDone := !c.finQueued || c.finAcked
	if c.finQueued && c.finRcvd && c.finAcked {
		c.finish(nil)
		return
	}
	// Passive close: peer finished, we have nothing pending and the
	// application has closed its write side.
	_ = ourSideDone
}

func (c *Conn) finish(err error) {
	if c.state == StateClosed {
		return
	}
	c.state = StateClosed
	c.Err = err
	c.Stat.ClosedAt = c.eng.Now()
	c.stopRTO()
	c.stopDelack()
	c.paceTimer.Stop()
	c.stack.remove(c)
	if c.OnClose != nil {
		c.OnClose(err)
	}
	// After OnClose returns nothing may touch this connection again;
	// on reuse-enabled stacks its memory goes back to the free list.
	c.stack.release(c)
}

func (c *Conn) abort(err error) { c.finish(err) }

// Abort closes the connection immediately with the given reason (the
// model's equivalent of a RST-and-forget). Applications use it to
// enforce deadlines on transfers.
func (c *Conn) Abort(err error) { c.finish(err) }
