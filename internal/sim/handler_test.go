package sim

import (
	"testing"
	"testing/quick"
	"time"
)

// TestStopShrinksPending is the eager-removal regression test: a
// stopped timer must leave the heap immediately instead of lingering
// until its deadline drains it (long runs with many cancelled TCP
// retransmission timers used to grow the heap without bound).
func TestStopShrinksPending(t *testing.T) {
	e := New()
	timers := make([]Timer, 100)
	for i := range timers {
		e.InitTimer(&timers[i], Func(func() {}))
		timers[i].Reset(time.Hour)
	}
	if e.Pending() != 100 {
		t.Fatalf("pending = %d, want 100", e.Pending())
	}
	for i := range timers {
		timers[i].Stop()
		if got, want := e.Pending(), 100-i-1; got != want {
			t.Fatalf("after %d stops: pending = %d, want %d", i+1, got, want)
		}
	}
}

// TestStopKeepsOrder stops every other timer out of a large pending
// set and checks the survivors still fire in exact (time, seq) order.
func TestStopKeepsOrder(t *testing.T) {
	e := New()
	var fired []int
	timers := make([]Timer, 200)
	for i := range timers {
		e.InitTimer(&timers[i], Func(func() { fired = append(fired, i) }))
		// Deliberately colliding deadlines to exercise seq tie-breaks.
		timers[i].Reset(time.Duration(i%13) * time.Millisecond)
	}
	for i := 1; i < len(timers); i += 2 {
		timers[i].Stop()
	}
	e.Run()
	if len(fired) != 100 {
		t.Fatalf("fired %d events, want 100", len(fired))
	}
	last := Time(-1)
	seen := map[int]bool{}
	for _, i := range fired {
		if i%2 == 1 {
			t.Fatalf("stopped timer %d fired", i)
		}
		at := Time(time.Duration(i%13) * time.Millisecond)
		if at < last {
			t.Fatalf("events fired out of time order")
		}
		last = at
		seen[i] = true
	}
	// Same-instant survivors must preserve scheduling order: within a
	// deadline class, indices ascend.
	byAt := map[Time][]int{}
	for _, i := range fired {
		at := Time(time.Duration(i%13) * time.Millisecond)
		byAt[at] = append(byAt[at], i)
	}
	for at, idxs := range byAt {
		for j := 1; j < len(idxs); j++ {
			if idxs[j] < idxs[j-1] {
				t.Fatalf("FIFO violated at %v: %v", at, idxs)
			}
		}
	}
}

type countingHandler struct {
	n    int
	last Time
}

func (h *countingHandler) Fire(now Time) { h.n++; h.last = now }

// recorder is a component's own Handler: it logs its id when it fires.
type recorder struct {
	got *[]int
	id  int
}

func (r *recorder) Fire(Time) { *r.got = append(*r.got, r.id) }

func TestHandlerOneShot(t *testing.T) {
	e := New()
	h := &countingHandler{}
	e.ScheduleHandler(3*time.Millisecond, h)
	e.ScheduleHandler(time.Millisecond, h)
	e.Run()
	if h.n != 2 {
		t.Fatalf("handler fired %d times, want 2", h.n)
	}
	if h.last != Time(3*time.Millisecond) {
		t.Fatalf("last fire at %v, want 3ms", h.last)
	}
}

// TestPooledTimersRecycle proves the free-list works: a long
// schedule/fire sequence must not keep one live Timer per event.
func TestPooledTimersRecycle(t *testing.T) {
	e := New()
	h := &countingHandler{}
	for i := 0; i < 1000; i++ {
		e.ScheduleHandler(time.Duration(i)*time.Microsecond, h)
	}
	e.Run()
	if h.n != 1000 {
		t.Fatalf("fired %d, want 1000", h.n)
	}
	if len(e.free) == 0 {
		t.Fatal("free-list empty after pooled events fired")
	}
	// Steady-state: schedule/fire one at a time must reuse a single
	// recycled timer, not allocate.
	before := len(e.free)
	for i := 0; i < 100; i++ {
		e.ScheduleHandler(time.Microsecond, h)
		e.RunFor(time.Microsecond)
	}
	if len(e.free) != before {
		t.Fatalf("free-list drifted from %d to %d in steady state", before, len(e.free))
	}
	// A prebuilt Func is a Handler like any other: scheduling it
	// neither grows the free-list nor allocates.
	n := 0
	fn := Func(func() { n++ })
	allocs := testing.AllocsPerRun(100, func() {
		e.ScheduleHandler(time.Microsecond, fn)
		e.RunFor(time.Microsecond)
	})
	if n != 101 || allocs != 0 || len(e.free) != before {
		t.Fatalf("Func one-shots: fired %d of 101, %v allocs per event, free-list %d (was %d)", n, allocs, len(e.free), before)
	}
}

// chainHandler reschedules itself from inside Fire via an owned timer.
type chainHandler struct {
	e     *Engine
	timer Timer
	n     int
}

func (h *chainHandler) Fire(now Time) {
	h.n++
	if h.n < 5 {
		h.timer.Reset(time.Second)
	}
}

func TestOwnedTimerResetChain(t *testing.T) {
	e := New()
	h := &chainHandler{e: e}
	e.InitTimer(&h.timer, h)
	if h.timer.Armed() {
		t.Fatal("fresh owned timer reports armed")
	}
	h.timer.Reset(time.Second)
	if !h.timer.Armed() {
		t.Fatal("Reset did not arm")
	}
	e.Run()
	if h.n != 5 {
		t.Fatalf("chain fired %d times, want 5", h.n)
	}
	if e.Now() != Time(5*time.Second) {
		t.Fatalf("clock = %v, want 5s", e.Now())
	}
	if h.timer.Armed() {
		t.Fatal("timer armed after chain ended")
	}
}

func TestOwnedTimerStopAndRearm(t *testing.T) {
	e := New()
	h := &chainHandler{e: e}
	e.InitTimer(&h.timer, h)
	h.timer.Reset(time.Second)
	if !h.timer.Stop() {
		t.Fatal("Stop on armed owned timer returned false")
	}
	if h.timer.Armed() {
		t.Fatal("armed after Stop")
	}
	e.RunFor(10 * time.Second)
	if h.n != 0 {
		t.Fatal("stopped owned timer fired")
	}
	// Rearm after stop: must fire again.
	h.timer.Reset(time.Second)
	e.RunFor(time.Second)
	if h.n != 1 {
		t.Fatalf("rearmed timer fired %d times, want 1", h.n)
	}
}

// TestOwnedTimerRepositionsInPlace rearms an armed timer to an earlier
// and a later deadline and checks it fires exactly once, at the last
// deadline set.
func TestOwnedTimerRepositionsInPlace(t *testing.T) {
	e := New()
	h := &chainHandler{e: e}
	h.n = 100 // disable self-rechaining
	e.InitTimer(&h.timer, h)
	h.timer.Reset(10 * time.Second)
	h.timer.Reset(time.Second) // earlier
	h.timer.Reset(3 * time.Second)
	e.Run()
	if h.n != 101 {
		t.Fatalf("fired %d times, want exactly once", h.n-100)
	}
	if e.Now() != Time(3*time.Second) {
		t.Fatalf("fired at %v, want 3s", e.Now())
	}
	if e.Pending() != 0 {
		t.Fatalf("pending = %d after run", e.Pending())
	}
}

// TestMixedTiersSameInstantFIFO checks that one-shots (a Func and a
// component's own Handler) and owned-timer events scheduled for the
// same instant fire in scheduling order — the property the
// bit-identical migration of the model code relies on.
func TestMixedTiersSameInstantFIFO(t *testing.T) {
	e := New()
	var got []int
	rec := func(i int) Func { return func() { got = append(got, i) } }
	var ot Timer
	e.InitTimer(&ot, rec(2))

	e.ScheduleHandler(time.Millisecond, rec(0))
	e.ScheduleHandler(time.Millisecond, &recorder{&got, 1})
	ot.Reset(time.Millisecond)
	e.ScheduleHandler(time.Millisecond, rec(3))
	e.Run()
	for i := range got {
		if got[i] != i {
			t.Fatalf("mixed-tier order = %v", got)
		}
	}
	if len(got) != 4 {
		t.Fatalf("fired %d events, want 4", len(got))
	}
}

// TestZeroValueTimerUnarmed pins the zero-value contract: an embedded
// timer touched before InitTimer must report unarmed and ignore Stop
// instead of dereferencing a nil engine or clobbering heap slot 0.
func TestZeroValueTimerUnarmed(t *testing.T) {
	var tm Timer
	if tm.Armed() {
		t.Fatal("zero-value timer reports armed")
	}
	if tm.Stop() {
		t.Fatal("Stop on zero-value timer returned true")
	}
	if tm.Armed() {
		t.Fatal("zero-value timer reports armed after no-op Stop")
	}
}

// Property: random interleavings of schedules and eager stops always
// fire the surviving events sorted by (time, scheduling order).
func TestPropertyStopsPreserveOrder(t *testing.T) {
	f := func(ops []uint16) bool {
		e := New()
		type rec struct {
			at  Time
			seq int
		}
		var fired []rec
		var live []*Timer
		for i, op := range ops {
			tm := new(Timer)
			e.InitTimer(tm, Func(func() { fired = append(fired, rec{e.Now(), i}) }))
			tm.Reset(time.Duration(op%97) * time.Microsecond)
			live = append(live, tm)
			if op%3 == 0 && len(live) > 1 {
				// Stop a pseudo-random earlier timer.
				live[int(op)%len(live)].Stop()
			}
		}
		e.Run()
		for i := 1; i < len(fired); i++ {
			if fired[i].at < fired[i-1].at {
				return false
			}
			if fired[i].at == fired[i-1].at && fired[i].seq < fired[i-1].seq {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
