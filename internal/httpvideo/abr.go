package httpvideo

import (
	"time"

	"bufferqoe/internal/netem"
	"bufferqoe/internal/sim"
	"bufferqoe/internal/tcp"
)

// ABRPort is the segment server's listening port.
const ABRPort = 8081

// DefaultLadder is the bitrate ladder in bits/s, bracketing the
// paper's SD (4 Mbit/s) and HD (8 Mbit/s) profiles.
var DefaultLadder = []float64{1e6, 2.5e6, 4e6, 8e6}

// ABRAlgorithm selects the client's rate-decision logic.
type ABRAlgorithm int

// ABR algorithms.
const (
	// ABRRate picks the highest ladder rung below a safety fraction
	// of the EWMA throughput estimate (classic throughput-based DASH).
	ABRRate ABRAlgorithm = iota
	// ABRBuffer maps the playback buffer level linearly onto the
	// ladder between a reservoir and a cushion (BBA-style, Huang et
	// al. SIGCOMM 2014).
	ABRBuffer
)

func (a ABRAlgorithm) String() string {
	if a == ABRBuffer {
		return "buffer"
	}
	return "rate"
}

// ABRConfig describes a segmented adaptive stream and its player.
type ABRConfig struct {
	// Ladder is the available bitrate set, ascending (default
	// DefaultLadder).
	Ladder []float64
	// SegmentDuration is the media time per segment (default 2s).
	SegmentDuration time.Duration
	// MediaDuration is the clip length (default 16s).
	MediaDuration time.Duration
	// StartupTarget / RebufferTarget as for progressive download
	// (defaults 2s each).
	StartupTarget, RebufferTarget time.Duration
	// MaxBuffer stops fetching ahead when this much media is queued
	// (default 8s).
	MaxBuffer time.Duration
	// Algorithm selects rate- or buffer-based adaptation.
	Algorithm ABRAlgorithm
	// SafetyFactor discounts the throughput estimate for ABRRate
	// (default 0.8).
	SafetyFactor float64
	// Deadline aborts the session (default 10x media duration).
	Deadline time.Duration
}

func (c ABRConfig) withDefaults() ABRConfig {
	if len(c.Ladder) == 0 {
		c.Ladder = DefaultLadder
	}
	if c.SegmentDuration == 0 {
		c.SegmentDuration = 2 * time.Second
	}
	if c.MediaDuration == 0 {
		c.MediaDuration = 16 * time.Second
	}
	if c.StartupTarget == 0 {
		c.StartupTarget = 2 * time.Second
	}
	if c.RebufferTarget == 0 {
		c.RebufferTarget = 2 * time.Second
	}
	if c.MaxBuffer == 0 {
		c.MaxBuffer = 8 * time.Second
	}
	if c.SafetyFactor == 0 {
		c.SafetyFactor = 0.8
	}
	if c.Deadline == 0 {
		c.Deadline = 10 * c.MediaDuration
	}
	return c
}

// segments returns the number of segments in the clip.
func (c ABRConfig) segments() int {
	n := int((c.MediaDuration + c.SegmentDuration - 1) / c.SegmentDuration)
	if n < 1 {
		n = 1
	}
	return n
}

// segmentBytes is the size of one segment at ladder rung idx.
func (c ABRConfig) segmentBytes(idx int) int64 {
	return int64(c.Ladder[idx] * c.SegmentDuration.Seconds() / 8)
}

// abrRequestBase encodes "serve rung idx" as a request of
// abrRequestBase+idx bytes — the model's stand-in for a segment URL.
const abrRequestBase = 200

// RegisterABRServer installs the segment server: each connection
// carries one request whose length selects the ladder rung; the
// server responds with that segment and closes.
func RegisterABRServer(st *tcp.Stack, port uint16, cfg ABRConfig) {
	cfg = cfg.withDefaults()
	st.Listen(port, func(c *tcp.Conn) {
		var got int64
		c.OnReadable = func(n int64) {
			got += n
			if got >= abrRequestBase {
				idx := int(got - abrRequestBase)
				if idx >= len(cfg.Ladder) {
					idx = len(cfg.Ladder) - 1
				}
				got = -1 << 40 // serve once
				c.Send(cfg.segmentBytes(idx))
				c.CloseWrite()
			}
		}
		c.OnPeerClose = func(*tcp.Conn) { c.CloseWrite() }
	})
}

// ABRResult extends the progressive-download result with adaptation
// metrics.
type ABRResult struct {
	Result
	// MeanBitrate is the media-time-weighted average rung in bits/s.
	MeanBitrate float64
	// Switches counts rung changes between consecutive segments.
	Switches int
	// Segments is how many segments finished downloading.
	Segments int
}

// abrSession is one viewing session's state.
type abrSession struct {
	st     *tcp.Stack
	server netem.Addr
	cfg    ABRConfig
	onDone func(ABRResult)

	start        sim.Time
	rates        []float64 // chosen rate per downloaded segment
	estimate     float64   // EWMA throughput, bits/s
	nextSegment  int
	downloading  bool
	bufferedMed  time.Duration // media downloaded
	played       time.Duration
	playing      bool
	started      bool
	startupDelay time.Duration
	stalls       int
	stallTime    time.Duration
	done         bool
	guard        sim.Timer
}

// WatchABR streams the clip with the configured adaptation and
// reports the session result.
func WatchABR(st *tcp.Stack, server netem.Addr, cfg ABRConfig, onDone func(ABRResult)) {
	cfg = cfg.withDefaults()
	s := &abrSession{
		st: st, server: server, cfg: cfg, onDone: onDone,
		start: st.Node().Engine().Now(),
	}
	eng := st.Node().Engine()
	eng.InitTimer(&s.guard, sim.Func(s.finish))
	s.guard.Reset(cfg.Deadline)
	s.maybeFetch()
	eng.ScheduleHandler(tick, sim.Func(s.step))
}

// pickRate implements the two adaptation algorithms.
func (s *abrSession) pickRate() int {
	ladder := s.cfg.Ladder
	switch s.cfg.Algorithm {
	case ABRBuffer:
		// BBA: reservoir at the rebuffer target, cushion at MaxBuffer.
		reservoir := s.cfg.RebufferTarget
		cushion := s.cfg.MaxBuffer
		buf := s.buffered()
		if buf <= reservoir {
			return 0
		}
		if buf >= cushion {
			return len(ladder) - 1
		}
		frac := float64(buf-reservoir) / float64(cushion-reservoir)
		idx := int(frac * float64(len(ladder)-1))
		if idx >= len(ladder) {
			idx = len(ladder) - 1
		}
		return idx
	default: // ABRRate
		if s.estimate == 0 {
			return 0 // conservative first segment
		}
		budget := s.cfg.SafetyFactor * s.estimate
		idx := 0
		for i, r := range ladder {
			if r <= budget {
				idx = i
			}
		}
		return idx
	}
}

func (s *abrSession) buffered() time.Duration { return s.bufferedMed - s.played }

// maybeFetch starts the next segment download if the player wants
// more media and nothing is in flight.
func (s *abrSession) maybeFetch() {
	if s.done || s.downloading || s.nextSegment >= s.cfg.segments() {
		return
	}
	if s.buffered() >= s.cfg.MaxBuffer {
		return // pause fetching; step() will retry as playback drains
	}
	s.downloading = true
	idx := s.pickRate()
	eng := s.st.Node().Engine()
	begin := eng.Now()
	want := s.cfg.segmentBytes(idx)

	conn := s.st.Dial(s.server)
	var rx int64
	var firstByte sim.Time
	conn.OnEstablished = func() {
		conn.Send(int64(abrRequestBase + idx))
	}
	conn.OnReadable = func(n int64) {
		if rx == 0 {
			firstByte = eng.Now()
		}
		rx += n
	}
	conn.OnPeerClose = func(*tcp.Conn) {
		conn.CloseWrite()
		if s.done {
			return
		}
		s.downloading = false
		if rx < want {
			return // truncated: deadline will end the session
		}
		// Throughput sample from first payload byte, as real players
		// measure it — the handshake is not part of the link estimate.
		from := firstByte
		if from == 0 {
			from = begin
		}
		dur := eng.Now().Sub(from).Seconds()
		if dur > 0 {
			sample := float64(want*8) / dur
			if s.estimate == 0 {
				s.estimate = sample
			} else {
				s.estimate = 0.8*s.estimate + 0.2*sample
			}
		}
		s.rates = append(s.rates, s.cfg.Ladder[idx])
		s.nextSegment++
		s.bufferedMed += s.cfg.SegmentDuration
		s.maybeFetch()
	}
}

// step is the 100 ms playout tick (same loop as progressive Watch).
func (s *abrSession) step() {
	if s.done {
		return
	}
	eng := s.st.Node().Engine()
	switch {
	case !s.started:
		if s.buffered() >= s.cfg.StartupTarget || s.nextSegment >= s.cfg.segments() {
			s.started = true
			s.playing = true
			s.startupDelay = eng.Now().Sub(s.start)
		}
	case s.playing:
		if s.buffered() <= 0 && s.played < s.cfg.MediaDuration {
			s.playing = false
			s.stalls++
		} else {
			s.played += tick
			if s.played >= s.cfg.MediaDuration {
				s.guard.Stop()
				s.finish()
				return
			}
		}
	default: // rebuffering
		s.stallTime += tick
		if s.buffered() >= s.cfg.RebufferTarget || s.nextSegment >= s.cfg.segments() {
			s.playing = true
		}
	}
	s.maybeFetch()
	eng.ScheduleHandler(tick, sim.Func(s.step))
}

func (s *abrSession) finish() {
	if s.done {
		return
	}
	s.done = true
	eng := s.st.Node().Engine()
	if !s.started {
		s.startupDelay = eng.Now().Sub(s.start)
	}
	res := ABRResult{
		Result: Result{
			StartupDelay: s.startupDelay,
			Stalls:       s.stalls,
			StallTime:    s.stallTime,
			Played:       s.played,
			Completed:    s.played >= s.cfg.MediaDuration,
		},
		Switches: switchCount(s.rates),
		Segments: s.nextSegment,
	}
	var mediaWeighted float64
	for _, r := range s.rates {
		mediaWeighted += r
	}
	if len(s.rates) > 0 {
		res.MeanBitrate = mediaWeighted / float64(len(s.rates))
	}
	res.MOS = ABRMOS(res, s.cfg)
	if s.played == 0 && !res.Completed {
		res.MOS = 1
	}
	s.onDone(res)
}

func switchCount(rates []float64) int {
	n := 0
	for i := 1; i < len(rates); i++ {
		if rates[i] != rates[i-1] {
			n++
		}
	}
	return n
}

// ABRMOS extends the Mok et al. stall regression with the bitrate and
// switching terms of the standard ABR QoE utility (Yin et al.,
// SIGCOMM 2015): the stall score is discounted by how far the
// delivered bitrate sits below the top rung and by rate-switch churn.
func ABRMOS(r ABRResult, cfg ABRConfig) float64 {
	cfg = cfg.withDefaults()
	mos := MokMOS(r.StartupDelay, r.Stalls, r.StallTime, r.Played)
	top := cfg.Ladder[len(cfg.Ladder)-1]
	if top > 0 && r.MeanBitrate > 0 {
		mos -= 1.5 * (1 - r.MeanBitrate/top)
	}
	if r.Played > 0 {
		perMin := float64(r.Switches) / r.Played.Minutes()
		mos -= 0.05 * perMin
	}
	if mos < 1 {
		mos = 1
	}
	if mos > 5 {
		mos = 5
	}
	return mos
}
