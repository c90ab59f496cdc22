package experiments

import (
	"fmt"
	"math"
	"strconv"
	"time"

	"bufferqoe/internal/media"
	"bufferqoe/internal/sim"
	"bufferqoe/internal/stats"
	"bufferqoe/internal/telemetry"
	"bufferqoe/internal/video"
	"bufferqoe/internal/voip"
)

// callSpacing is the gap between successive call starts in one cell.
const callSpacing = 16 * time.Second

// cellCap is a rep loop's horizon: 30 simulated minutes, which fit 112
// calls. Sizing it from the reps asked for would change the values of
// cells stored under unchanged keys, so it waits for engine.Version "2".
const cellCap = 30 * time.Minute

// stopReason says why a rep loop stopped: the horizon arrived first
// (the zero value), every rep was scored, or the CI rule held.
type stopReason uint8

const (
	stopHorizon stopReason = iota
	stopAll
	stopCI
)

// repLoop is the one loop that runs a cell's calls, streams, fetches or
// sessions, on one owned timer. Spaced (spacing > 0), rep i starts at
// Warmup + i·spacing under the i-th of the sequence numbers reserved
// before the run, so each start keeps the (at, seq) key a one-shot
// scheduled then would have had, while only the next start is queued.
// Chained (spacing 0), rep 0 starts at Warmup and each next one a second
// after the last was scored; a tick that finds every rep started ends
// the run. A foreground's start begins rep i and calls scored once the
// rep's scores are in its samples.
type repLoop struct {
	eng        *sim.Engine
	timer      sim.Timer
	reps       int
	rule       stopRule
	watched    []*stats.Sample
	spacing    time.Duration
	rep0       sim.Time // when rep 0 starts
	first      uint64   // spaced: rep 0's reserved sequence number
	next, done int      // reps started, reps scored
	why        stopReason
	start      func(i int, scored func())
	scoredFn   func()
}

// runReps runs o.Reps reps of start on se until all are scored, the
// stopping rule holds for every watched sample, or the horizon arrives;
// it marks the build and sim phases, records the reps and returns why
// it stopped. watched are the per-rep MOS samples the rule reads: none
// for a cell whose spec carries no rule (optStop), which runs every rep.
func runReps(se *sim.Engine, o Options, pc *telemetry.PhaseClock, spacing time.Duration, start func(i int, scored func()), watched ...*stats.Sample) stopReason {
	pc.Mark(telemetry.PhaseBuild)
	l := &repLoop{eng: se, reps: o.Reps, rule: o.stop(), watched: watched,
		spacing: spacing, rep0: se.Now().Add(o.Warmup), start: start}
	l.scoredFn = l.scored
	se.InitTimer(&l.timer, l)
	if spacing > 0 {
		l.first = se.ReserveSeq(o.Reps)
		l.timer.ResetAtSeq(l.rep0, l.first)
	} else {
		l.timer.Reset(o.Warmup)
	}
	se.RunFor(cellCap)
	pc.Mark(telemetry.PhaseSim)
	recordReps(o, l.done, l.why)
	return l.why
}

// Fire starts the next rep, first arming a spaced loop's timer for the
// one after.
func (l *repLoop) Fire(sim.Time) {
	i := l.next
	if l.spacing == 0 && i == l.reps {
		l.stop(stopAll)
		return
	}
	l.next++
	if l.spacing > 0 && l.next < l.reps {
		l.timer.ResetAtSeq(l.rep0.Add(time.Duration(l.next)*l.spacing), l.first+uint64(l.next))
	}
	l.start(i, l.scoredFn)
}

// scored counts a scored rep: a spaced loop stops at its last one, and
// a chained loop schedules its next start unless the rule holds for
// every watched sample (with none watched, it never does).
func (l *repLoop) scored() {
	l.done++
	tight := len(l.watched) > 0
	for _, s := range l.watched {
		tight = tight && l.rule.done(s)
	}
	switch {
	case l.done == l.reps && (tight || l.spacing > 0):
		l.stop(stopAll)
	case tight:
		l.stop(stopCI)
	case l.spacing == 0:
		l.timer.Reset(time.Second)
	}
}

func (l *repLoop) stop(why stopReason) {
	l.why = why
	l.eng.Halt()
}

// recordReps flushes a rep loop's telemetry: the reps scored and, for a
// loop that stopped short, why. Free when no collector is attached.
func recordReps(o Options, reps int, why stopReason) {
	if col := o.Collector; col != nil {
		col.RepsPerCell.Observe(float64(reps))
		switch why {
		case stopCI:
			col.CellsStoppedEarly.Inc()
		case stopHorizon:
			col.CellsHitHorizon.Inc()
		}
	}
}

// Adaptive replication: the paper runs a fixed number of calls/streams
// per cell (200-2000), far past where medians stabilize. The sequential
// stopping rule here keeps repeating a cell only until the 95%
// confidence interval of its per-repetition QoE score is tight enough,
// so cheap cells (idle links, uncongested buffers) stop after the
// minimum repetitions while noisy cells run to their configured cap.
//
// Determinism contract: the stop decision is a pure function of the
// completed repetitions' scores, which under the engine's
// common-random-numbers seeding are identical to the first n
// repetitions of an exhaustive run. The rule is therefore a cache axis
// (CellSpec.Stop) — adaptive and exhaustive runs of one configuration
// are distinct, individually deterministic cells — and early-stopped
// cells cache, persist, and replay exactly like any other.

// stopRule is the compiled form of Options.MinReps/CIHalfWidth. The
// zero value is the disabled rule (never stops early).
type stopRule struct {
	min int     // repetitions required before stopping is considered
	hw  float64 // target 95% CI half-width; <= 0 disables the rule
}

// stop compiles the options' stopping rule (the zero rule when
// adaptive replication is off).
func (o Options) stop() stopRule {
	if o.CIHalfWidth <= 0 {
		return stopRule{}
	}
	return stopRule{min: o.MinReps, hw: o.CIHalfWidth}
}

// tag renders the rule as its canonical CellSpec.Stop encoding, or ""
// when disabled. strconv's shortest-float rendering makes the encoding
// injective: distinct rules never share a cell.
func (r stopRule) tag() string {
	if r.hw <= 0 {
		return ""
	}
	return "ci" + strconv.Itoa(r.min) + ":" + strconv.FormatFloat(r.hw, 'g', -1, 64)
}

// done reports whether the repetitions accumulated in s satisfy the
// rule: at least min (and two, so a variance exists) observations and
// a 95% CI half-width t(n-1) * s/sqrt(n) no wider than hw. A disabled
// rule never stops.
func (r stopRule) done(s *stats.Sample) bool {
	n := s.N()
	if r.hw <= 0 || n < r.min || n < 2 {
		return false
	}
	return tCritical(n-1)*s.Std()/math.Sqrt(float64(n)) <= r.hw
}

// tCrit95 holds two-sided 95% Student-t critical values for 1..30
// degrees of freedom; beyond 30 the normal approximation is within
// half a percent.
var tCrit95 = [30]float64{
	12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228,
	2.201, 2.179, 2.160, 2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086,
	2.080, 2.074, 2.069, 2.064, 2.060, 2.056, 2.052, 2.048, 2.045, 2.042,
}

// tCritical returns the two-sided 95% Student-t critical value for df
// degrees of freedom.
func tCritical(df int) float64 {
	if df < 1 {
		return math.Inf(1)
	}
	if df <= len(tCrit95) {
		return tCrit95[df-1]
	}
	return 1.96
}

// checkWarmup refuses a Warmup after which no rep of fg's loop could be
// scored inside the horizon. Both modes start rep 0 at Warmup, and a
// call's and a stream's length are fixed by their media; a fetch lasts
// at least a tick of the clock.
func checkWarmup(o Options, fg foreground) error {
	rep := time.Nanosecond
	switch fg.media {
	case "voip":
		rep = voip.CallLength(media.LibraryFrames, voip.DefaultPlayout)
	case "video":
		rep = video.StreamLength(fg.profile, o.ClipSeconds*fg.profile.FPS)
	}
	if limit := cellCap - rep; o.Warmup > limit {
		return fmt.Errorf("Warmup %v leaves no %s rep time to finish inside a cell's %v cap: a rep takes at least %v, so Warmup must be at most %v",
			o.Warmup, fg.media, cellCap, rep, limit)
	}
	return nil
}
