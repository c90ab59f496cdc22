// Package httpvideo implements the paper's Section 10 future-work
// item: HTTP (TCP) progressive video streaming, whose "initial work
// ... is consistent with our results". A client downloads a
// fixed-bitrate video over a single TCP connection into a playback
// buffer; playback starts after an initial buffering target, stalls
// when the buffer drains, and resumes after rebuffering. QoE follows
// the waiting-time regression of Mok, Chan & Chang ("Measuring the
// Quality of Experience of HTTP video streaming", IM 2011):
//
//	MOS = 4.23 - 0.0672*Lti - 0.742*Lfr - 0.106*Ltr
//
// with discretized levels for initial delay (Lti), stall frequency
// (Lfr) and mean stall duration (Ltr).
package httpvideo

import (
	"time"

	"bufferqoe/internal/netem"
	"bufferqoe/internal/sim"
	"bufferqoe/internal/tcp"
)

// Port is the streaming server's listening port.
const Port = 8080

// Config describes the stream and player.
type Config struct {
	// Bitrate is the media bitrate in bits/s (e.g. 4e6 for the
	// paper's SD profile).
	Bitrate float64
	// MediaDuration is the clip length.
	MediaDuration time.Duration
	// StartupTarget is how much media must be buffered before
	// playback starts (default 2s).
	StartupTarget time.Duration
	// RebufferTarget is the refill level after a stall (default 2s).
	RebufferTarget time.Duration
	// Deadline aborts the session (default: 10x media duration).
	Deadline time.Duration
}

func (c Config) withDefaults() Config {
	if c.Bitrate == 0 {
		c.Bitrate = 4e6
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
	if c.Deadline == 0 {
		c.Deadline = 10 * c.MediaDuration
	}
	return c
}

// mediaBytes returns the clip size in bytes.
func (c Config) mediaBytes() int64 {
	return int64(c.Bitrate * c.MediaDuration.Seconds() / 8)
}

// Result summarizes one viewing session.
type Result struct {
	// StartupDelay is the time from request to first playback.
	StartupDelay time.Duration
	// Stalls counts rebuffering events after playback started.
	Stalls int
	// StallTime is the total time spent rebuffering.
	StallTime time.Duration
	// Played is how much media played out before the deadline.
	Played time.Duration
	// Completed reports whether the whole clip played.
	Completed bool
	// MOS is the Mok et al. score.
	MOS float64
}

// RegisterServer installs the progressive-download server: on a
// 200-byte request it streams the whole clip and closes.
func RegisterServer(st *tcp.Stack, port uint16, cfg Config) {
	cfg = cfg.withDefaults()
	st.Listen(port, func(c *tcp.Conn) {
		var got int64
		c.OnReadable = func(n int64) {
			got += n
			if got >= 200 {
				got = -1 << 40 // serve once
				c.Send(cfg.mediaBytes())
				c.CloseWrite()
			}
		}
		c.OnPeerClose = func(*tcp.Conn) { c.CloseWrite() }
	})
}

// player simulates playout with a 100 ms tick.
const tick = 100 * time.Millisecond

// Watch streams the clip from server and reports the session result.
func Watch(st *tcp.Stack, server netem.Addr, cfg Config, onDone func(Result)) {
	cfg = cfg.withDefaults()
	eng := st.Node().Engine()
	start := eng.Now()

	conn := st.Dial(server)
	var rxBytes int64
	conn.OnEstablished = func() { conn.Send(200) }
	conn.OnReadable = func(n int64) { rxBytes += n }
	conn.OnPeerClose = func(*tcp.Conn) { conn.CloseWrite() }

	var (
		playing      bool
		started      bool
		startupDelay time.Duration
		played       time.Duration
		stalls       int
		stallTime    time.Duration
		done         bool
	)
	finish := func() {
		if done {
			return
		}
		done = true
		if !started {
			// Playback never began: the whole session was waiting.
			startupDelay = eng.Now().Sub(start)
		}
		completed := played >= cfg.MediaDuration
		res := Result{
			StartupDelay: startupDelay,
			Stalls:       stalls,
			StallTime:    stallTime,
			Played:       played,
			Completed:    completed,
		}
		res.MOS = MokMOS(startupDelay, stalls, stallTime, played)
		if played == 0 && !completed {
			res.MOS = 1 // nothing ever played: worst case
		}
		conn.Abort(nil)
		onDone(res)
	}
	var guard sim.Timer
	eng.InitTimer(&guard, sim.Func(finish))
	guard.Reset(cfg.Deadline)

	buffered := func() time.Duration {
		media := time.Duration(float64(rxBytes) * 8 / cfg.Bitrate * float64(time.Second))
		return media - played
	}
	var step sim.Func
	step = func() {
		if done {
			return
		}
		switch {
		case !started:
			if buffered() >= cfg.StartupTarget || rxBytes >= cfg.mediaBytes() {
				started = true
				playing = true
				startupDelay = eng.Now().Sub(start)
			}
		case playing:
			if buffered() <= 0 && played < cfg.MediaDuration {
				playing = false
				stalls++
			} else {
				played += tick
				if played >= cfg.MediaDuration {
					guard.Stop()
					finish()
					return
				}
			}
		default: // rebuffering
			stallTime += tick
			if buffered() >= cfg.RebufferTarget || rxBytes >= cfg.mediaBytes() {
				playing = true
			}
		}
		eng.ScheduleHandler(tick, step)
	}
	eng.ScheduleHandler(tick, step)
}

// MokMOS computes the IM 2011 regression from the session's waiting
// metrics. played bounds the stall-frequency normalization.
func MokMOS(startup time.Duration, stalls int, stallTime, played time.Duration) float64 {
	lti := level(startup.Seconds(), 1, 5, 10)
	freq := 0.0
	if played > 0 {
		freq = float64(stalls) / played.Minutes()
	} else if stalls > 0 {
		freq = 99
	}
	lfr := level(freq, 0.02, 0.15, 1)
	mean := 0.0
	if stalls > 0 {
		mean = stallTime.Seconds() / float64(stalls)
	}
	ltr := level(mean, 0.1, 5, 10)
	mos := 4.23 - 0.0672*lti - 0.742*lfr - 0.106*ltr
	if mos < 1 {
		mos = 1
	}
	if mos > 5 {
		mos = 5
	}
	return mos
}

// level discretizes a waiting metric into the regression's 0-3 scale.
func level(v, t1, t2, t3 float64) float64 {
	switch {
	case v <= t1:
		return 0
	case v <= t2:
		return 1
	case v <= t3:
		return 2
	default:
		return 3
	}
}
