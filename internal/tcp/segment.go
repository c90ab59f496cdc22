// Package tcp implements an event-driven TCP model over the netem
// substrate: three-way handshake, slow start, congestion avoidance,
// fast retransmit and NewReno fast recovery, RFC 6298 retransmission
// timeouts with Karn-safe timestamp-based RTT sampling, delayed ACKs,
// receiver flow control, and FIN teardown. Two congestion control
// algorithms are provided, matching the paper's testbeds: Reno (used
// on the backbone hosts) and CUBIC (used on the access hosts).
//
// Sequence numbers are modeled as 64-bit byte offsets from stream
// start (no wraparound), and payload bytes are accounted but not
// materialized: the applications in this study only need byte counts
// and timing.
package tcp

import (
	"sync"

	"bufferqoe/internal/sim"
)

// Segment is the TCP payload carried inside a netem.Packet.
type Segment struct {
	// Seq is the byte offset of the first payload byte (or of the FIN
	// if Len == 0 and FIN is set). SYN segments use Seq 0.
	Seq int64
	// Ack is the cumulative acknowledgment (next expected byte) and is
	// valid when ACK is set.
	Ack int64
	// Len is the payload length in bytes.
	Len int
	// Wnd is the advertised receive window in bytes.
	Wnd int64
	// SYN, ACK, FIN are the control flags used by the model.
	SYN, ACK, FIN bool
	// TSval is the sender's clock at transmission; TSecr echoes the
	// peer's TSval (RFC 7323 style), giving retransmission-safe RTT
	// samples (Karn's problem avoided).
	TSval, TSecr sim.Time
	// SACK carries up to three selective-acknowledgment blocks of
	// out-of-order data held by the receiver (RFC 2018), when the
	// stack is configured with SACK enabled.
	SACK []SACKBlock

	// ECNSetup negotiates ECN on SYN / SYN-ACK (standing in for the
	// ECE+CWR handshake combination of RFC 3168).
	ECNSetup bool
	// ECE is the ECN-Echo flag: the receiver saw Congestion
	// Experienced and keeps echoing until the sender responds.
	ECE bool
	// CWR acknowledges a congestion-window reduction to the receiver.
	CWR bool
	// CE mirrors the IP-header Congestion Experienced mark of the
	// packet that carried this segment; the demultiplexer copies it
	// over on receive (the model's "IP header" lives on netem.Packet).
	CE bool
}

// SACKBlock is one selective acknowledgment range [Start, End).
type SACKBlock struct {
	Start, End int64
}

// segPool recycles Segments between emission and the release of the
// packet that carries them (delivery or drop). Segments cross stacks (a data segment is allocated by
// the server's stack and consumed by the client's), so the pool is
// package-wide: per-stack free-lists would grow without bound on the
// receive-heavy side while the send-heavy side kept allocating. A
// sync.Pool is safe for determinism because newSegment resets every
// field — behavior never depends on which recycled object is handed
// out — and safe for the parallel cell engine because it is
// goroutine-safe.
var segPool = sync.Pool{New: func() any { return new(Segment) }}

// newSegment returns a fully zeroed segment, reusing pool memory and
// the SACK backing array.
//
//qoe:hotpath
func newSegment() *Segment {
	s := segPool.Get().(*Segment)
	sack := s.SACK[:0]
	*s = Segment{SACK: sack}
	return s
}

// ReleasePayload implements netem.PayloadReleaser: the packet that
// carried the segment was consumed or dropped, and nothing may touch
// the segment afterwards.
//
//qoe:hotpath
func (s *Segment) ReleasePayload() { segPool.Put(s) }

// wireSize returns the on-wire IP packet size for this segment.
func (s *Segment) wireSize() int {
	return 20 /* IP */ + 20 /* TCP */ + s.Len
}

// interval is a half-open byte range [start, end) of received
// out-of-order data.
type interval struct{ start, end int64 }

// intervalSet tracks out-of-order received byte ranges, kept sorted
// and coalesced. The expected steady state is a handful of holes, so a
// small slice beats any tree. Two buffers swap roles on every add so
// steady-state merging allocates nothing.
type intervalSet struct {
	iv  []interval
	tmp []interval
}

// clear empties the set, keeping both backing arrays for reuse.
func (s *intervalSet) clear() {
	s.iv = s.iv[:0]
}

// add merges [start, end) into the set.
func (s *intervalSet) add(start, end int64) {
	if end <= start {
		return
	}
	// Build into the spare buffer: appending into s.iv[:0] in place
	// would overwrite elements not yet visited once an insertion makes
	// the output longer than the read position. Swapping the two
	// buffers afterwards means both reach steady capacity after a few
	// adds and merging stops allocating.
	out := s.tmp[:0]
	inserted := false
	for _, v := range s.iv {
		switch {
		case v.end < start:
			out = append(out, v)
		case end < v.start:
			if !inserted {
				out = append(out, interval{start, end})
				inserted = true
			}
			out = append(out, v)
		default: // overlap or adjacency: coalesce
			if v.start < start {
				start = v.start
			}
			if v.end > end {
				end = v.end
			}
		}
	}
	if !inserted {
		out = append(out, interval{start, end})
	}
	s.iv, s.tmp = out, s.iv
}

// advance returns the new contiguous frontier starting from pos,
// consuming any intervals it absorbs. Survivors are copied down so the
// backing array's full capacity stays usable by future adds.
func (s *intervalSet) advance(pos int64) int64 {
	n := 0
	for n < len(s.iv) && s.iv[n].start <= pos {
		if s.iv[n].end > pos {
			pos = s.iv[n].end
		}
		n++
	}
	if n > 0 {
		m := copy(s.iv, s.iv[n:])
		s.iv = s.iv[:m]
	}
	return pos
}

// empty reports whether no out-of-order data is buffered.
func (s *intervalSet) empty() bool { return len(s.iv) == 0 }
