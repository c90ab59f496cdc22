package experiments

import (
	"fmt"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"bufferqoe/internal/sim"
	"bufferqoe/internal/stats"
	"bufferqoe/internal/telemetry"
	"bufferqoe/internal/video"
)

// traceEvent is an owned timer that logs when it fired, then runs
// then. ResetAt draws its sequence number when it is called, exactly
// as a one-shot scheduled by the same call would, so a trace of these
// is the trace of the one-shot schedule the old rep loops built.
type traceEvent struct {
	t     sim.Timer
	label string
	log   *[]string
	then  func()
}

func (ev *traceEvent) Fire(now sim.Time) {
	*ev.log = append(*ev.log, now.String()+" "+ev.label)
	if ev.then != nil {
		ev.then()
	}
}

func traceAt(se *sim.Engine, log *[]string, when time.Duration, label string, then func()) {
	ev := &traceEvent{label: label, log: log, then: then}
	se.InitTimer(&ev.t, ev)
	ev.t.ResetAt(sim.Time(when))
}

// repTrace runs a rep loop on a bare engine whose reps each take
// length and log their start and score; events other than the loop's
// are armed by setup first.
func repTrace(t *testing.T, o Options, spacing, length time.Duration, setup func(se *sim.Engine, log *[]string), watched ...*stats.Sample) (*sim.Engine, []string, stopReason) {
	t.Helper()
	se := sim.New()
	var log []string
	if setup != nil {
		setup(se, &log)
	}
	var pc telemetry.PhaseClock
	why := runReps(se, o, &pc, spacing, func(i int, scored func()) {
		log = append(log, fmt.Sprintf("%v rep%d", se.Now(), i))
		traceAt(se, &log, se.Now().Duration()+length, fmt.Sprintf("scored%d", i), func() {
			for _, s := range watched {
				s.Add(3)
			}
			scored()
		})
	}, watched...)
	return se, log, why
}

// TestRepLoopSpacedSchedule holds the spaced loop to the one-shot
// schedule it replaced: rep i fires at Warmup + i·spacing under the
// sequence number reserved before the run, so an event armed for the
// same instant earlier fires before it and one armed later (even
// before rep i-1 started) fires after it. The loop queues one timer
// for its reps where the one-shot schedule queued all of them.
func TestRepLoopSpacedSchedule(t *testing.T) {
	o := Options{Warmup: 5 * time.Second, Reps: 3}
	se, log, why := repTrace(t, o, 16*time.Second, 10*time.Second, func(se *sim.Engine, log *[]string) {
		traceAt(se, log, time.Second, "x", func() { traceAt(se, log, 21*time.Second, "late1", nil) })
		traceAt(se, log, 5*time.Second, "early0", nil)
		traceAt(se, log, 21*time.Second, "early1", nil)
	})
	want := []string{
		"1s x", "5s early0", "5s rep0", "15s scored0",
		"21s early1", "21s rep1", "21s late1", "31s scored1",
		"37s rep2", "47s scored2",
	}
	if !slices.Equal(log, want) {
		t.Fatalf("trace:\n%s\nwant:\n%s", strings.Join(log, "\n"), strings.Join(want, "\n"))
	}
	if why != stopAll {
		t.Errorf("stop reason %v, want all", why)
	}
	if se.Executed != uint64(len(want)) {
		t.Errorf("%d events fired, want %d", se.Executed, len(want))
	}
	// The one-shot schedule queued x, early0, early1 and three reps.
	if hw := se.Metrics().HeapHighWater; hw > 4 {
		t.Errorf("heap high water %d, want <= 4 (the one-shot schedule reached 6)", hw)
	}
}

// TestRepLoopChainedSchedule: each rep starts a second after the last
// one was scored, and a closing tick a second after the last rep ends
// the run (web's trailing tick, which the event counts pin).
func TestRepLoopChainedSchedule(t *testing.T) {
	o := Options{Warmup: 5 * time.Second, Reps: 2}
	se, log, why := repTrace(t, o, 0, 3*time.Second, nil)
	want := []string{"5s rep0", "8s scored0", "9s rep1", "12s scored1"}
	if !slices.Equal(log, want) {
		t.Fatalf("trace %q, want %q", log, want)
	}
	if why != stopAll || se.Executed != 5 || se.Now() != sim.Time(13*time.Second) {
		t.Errorf("stopped (%v) after %d events at %v, want all after 5 at 13s", why, se.Executed, se.Now())
	}
}

// TestRepLoopStopReasons: the loop says why it stopped — the CI rule
// only on a cell that watches samples, the horizon when the reps asked
// for do not fit in cellCap.
func TestRepLoopStopReasons(t *testing.T) {
	adaptive := Options{Warmup: 5 * time.Second, Reps: 5, CIHalfWidth: 0.5, MinReps: 2}
	for _, spacing := range []time.Duration{16 * time.Second, 0} {
		var s stats.Sample
		_, log, why := repTrace(t, adaptive, spacing, 10*time.Second, nil, &s)
		if why != stopCI || s.N() != 2 {
			t.Errorf("spacing %v: constant scores stopped (%v) after %d reps, want ci after 2 (%q)", spacing, why, s.N(), log)
		}
		_, log, why = repTrace(t, adaptive, spacing, 10*time.Second, nil)
		if why != stopAll || len(log) != 10 {
			t.Errorf("spacing %v: a loop watching nothing stopped (%v) after %q, want all 5 reps", spacing, why, log)
		}
	}
	// Reps start at 5 s + 16 s·i, so 113 start before the 30 min
	// horizon and the last of them would be scored 7 s after it.
	var s stats.Sample
	_, _, why := repTrace(t, Options{Warmup: 5 * time.Second, Reps: 200}, 16*time.Second, 10*time.Second, nil, &s)
	if why != stopHorizon || s.N() != 112 {
		t.Errorf("200 reps stopped (%v) after %d, want horizon after 112", why, s.N())
	}
}

// TestCellReportsHorizonStop: a VoIP cell asked for 120 calls runs the
// 112 that fit in the horizon and says so — a horizon stop, not an
// early stop by the CI rule (which is not even set).
func TestCellReportsHorizonStop(t *testing.T) {
	for _, tc := range []struct {
		reps, ran          int
		horizon, stopEarly uint64
	}{
		{3, 3, 0, 0},
		{120, 112, 1, 0},
	} {
		s := NewSession(1)
		col := telemetry.New()
		s.SetCollector(col)
		if _, err := probeOne(t.Context(), s, ProbeSpec{Buffer: 8, Media: "voip"}, Options{Reps: tc.reps}); err != nil {
			t.Fatal(err)
		}
		snap := col.Snapshot()
		if int(snap.RepsPerCell.Sum) != tc.ran || snap.CellsHitHorizon != tc.horizon || snap.CellsStoppedEarly != tc.stopEarly {
			t.Errorf("Reps %d: ran %v reps, %d horizon stops, %d early stops; want %d, %d, %d", tc.reps,
				snap.RepsPerCell.Sum, snap.CellsHitHorizon, snap.CellsStoppedEarly, tc.ran, tc.horizon, tc.stopEarly)
		}
	}
}

// TestRepLoopMemoryIndependentOfReps: what a cell allocates does not
// grow with the reps asked for, only with the reps that fit in the
// horizon. The one-shot loops scheduled a timer and a closure per
// requested rep before the run: 100,000 reps cost ~202,000 more
// allocations and ~28 MB, and a "reps" of 2·10⁹ in a request was
// 4·10⁹ allocations.
func TestRepLoopMemoryIndependentOfReps(t *testing.T) {
	cell := func(reps int) (mallocs, bytes uint64) {
		s := NewSession(1)
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		if _, err := probeOne(t.Context(), s, ProbeSpec{Buffer: 8, Media: "voip"}, Options{Reps: reps}); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return after.Mallocs - before.Mallocs, after.TotalAlloc - before.TotalAlloc
	}
	m3, b3 := cell(3)
	m120, b120 := cell(120)
	mHuge, bHuge := cell(100000)
	t.Logf("3 reps: %d allocs, %d B; 120: %d, %d B; 100000: %d, %d B", m3, b3, m120, b120, mHuge, bHuge)
	// 112 calls instead of 3 (~21 allocations and ~22 KB a call).
	if mHuge > m3+4096 || bHuge > b3+4<<20 {
		t.Errorf("100000 reps allocate %d (%d B) against %d (%d B) at 3: over the fixed budget of 4096 allocations, 4 MB",
			mHuge, bHuge, m3, b3)
	}
	// 120 and 100000 reps run the same 112 calls.
	if mHuge > m120+64 {
		t.Errorf("100000 reps allocate %d, 120 reps %d: the loop pays for reps it never runs", mHuge, m120)
	}
}

// TestWarmupBound: a probe is refused a Warmup with which no rep could
// be scored inside the horizon, and at the bound a VoIP call and a
// video stream are scored exactly once.
func TestWarmupBound(t *testing.T) {
	o := Options{ClipSeconds: 4}.withDefaults()
	bounds := map[string]time.Duration{
		"voip":  cellCap - (400*20*time.Millisecond + 60*time.Millisecond + 5*time.Second),
		"video": cellCap - (4*time.Second + video.StartupDelay + 3*time.Second),
		"web":   cellCap - time.Nanosecond,
	}
	for media, bound := range bounds {
		p := ProbeSpec{Buffer: 8, Media: media}
		o.Warmup = bound + time.Nanosecond
		_, err := PrepareProbes([]ProbeSpec{p}, o)
		if err == nil || !strings.Contains(err.Error(), "Warmup") || !strings.Contains(err.Error(), bound.String()) {
			t.Errorf("%s at Warmup %v: error %v, want one naming Warmup and the bound %v", media, o.Warmup, err, bound)
		}
		o.Warmup = bound
		if _, err := PrepareProbes([]ProbeSpec{p}, o); err != nil {
			t.Errorf("%s at the bound %v: %v", media, bound, err)
		}
		if media == "web" {
			continue // a fetch has no fixed length, so its bound is loose
		}
		s := NewSession(1)
		col := telemetry.New()
		s.SetCollector(col)
		if _, err := probeOne(t.Context(), s, p, o); err != nil {
			t.Fatal(err)
		}
		if got := col.Snapshot().RepsPerCell.Sum; got != 1 {
			t.Errorf("%s at the bound %v scored %v reps, want 1", media, bound, got)
		}
	}
}
