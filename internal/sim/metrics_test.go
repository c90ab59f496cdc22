package sim

import (
	"testing"
	"time"
)

type countHandler struct{ fired int }

func (h *countHandler) Fire(Time) { h.fired++ }

type countArgHandler struct{ args []any }

func (h *countArgHandler) FireArg(_ Time, a any) { h.args = append(h.args, a) }

func TestMetricsPerTier(t *testing.T) {
	e := New()
	ch := &countHandler{}
	ah := &countArgHandler{}

	// One of each tier: closure, pooled Handler, pooled ArgHandler, and
	// an owned timer that fires twice (Reset rearm).
	e.Schedule(time.Millisecond, func() {})
	e.ScheduleHandler(2*time.Millisecond, ch)
	e.ScheduleArg(3*time.Millisecond, ah, "p")
	var owned Timer
	e.InitTimer(&owned, ch)
	owned.Reset(4 * time.Millisecond)
	e.At(Time(0).Add(5*time.Millisecond), func() { owned.Reset(time.Millisecond) })
	e.Run()

	m := e.Metrics()
	if m.EventsClosure != 2 {
		t.Fatalf("closure events = %d, want 2", m.EventsClosure)
	}
	if m.EventsPooled != 1 {
		t.Fatalf("pooled events = %d, want 1", m.EventsPooled)
	}
	if m.EventsArg != 1 {
		t.Fatalf("arg events = %d, want 1", m.EventsArg)
	}
	if m.EventsOwned != 2 {
		t.Fatalf("owned events = %d, want 2", m.EventsOwned)
	}
	if sum := m.EventsClosure + m.EventsPooled + m.EventsArg + m.EventsOwned; sum != e.Executed {
		t.Fatalf("tier sum = %d, Executed = %d", sum, e.Executed)
	}
	// Both pooled events recycled their timers.
	if m.TimerRecycles != 2 {
		t.Fatalf("timer recycles = %d, want 2", m.TimerRecycles)
	}
	// Five timers were queued before anything fired.
	if m.HeapHighWater != 5 {
		t.Fatalf("heap high water = %d, want 5", m.HeapHighWater)
	}
}

func TestMetricsHighWaterSurvivesDrain(t *testing.T) {
	e := New()
	for i := 0; i < 10; i++ {
		e.Schedule(time.Duration(i)*time.Millisecond, func() {})
	}
	e.Run()
	if e.Pending() != 0 {
		t.Fatalf("pending = %d after drain", e.Pending())
	}
	if hw := e.Metrics().HeapHighWater; hw != 10 {
		t.Fatalf("high water = %d, want 10", hw)
	}
}

// TestNearHighWaterCountsTheNearTier files timers on both sides of the
// horizon: HeapHighWater counts both tiers, NearHighWater only the
// timers armed to fire within the horizon, including one re-armed into
// the near tier from the far one.
func TestNearHighWaterCountsTheNearTier(t *testing.T) {
	e := New()
	h := &countHandler{}
	var owned Timer
	e.InitTimer(&owned, h)
	for i := 0; i < 3; i++ {
		e.ScheduleHandler(time.Duration(nearHorizon)-1, h)
	}
	for i := 0; i < 4; i++ {
		e.ScheduleHandler(time.Duration(nearHorizon)+time.Duration(i), h)
	}
	owned.Reset(time.Second)
	if m := e.Metrics(); m.HeapHighWater != 8 || m.NearHighWater != 3 {
		t.Fatalf("high water = %d, near %d; want 8, 3", m.HeapHighWater, m.NearHighWater)
	}
	owned.Reset(0)
	if m := e.Metrics(); m.HeapHighWater != 8 || m.NearHighWater != 4 {
		t.Fatalf("after a re-arm into the near tier: high water = %d, near %d; want 8, 4", m.HeapHighWater, m.NearHighWater)
	}
	e.Run()
	if h.fired != 8 || e.Pending() != 0 {
		t.Fatalf("fired %d, pending %d; want 8, 0", h.fired, e.Pending())
	}
}
