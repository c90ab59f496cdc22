package sim

import (
	"testing"
	"time"
)

type countHandler struct{ fired int }

func (h *countHandler) Fire(Time) { h.fired++ }

func TestMetricsPerTier(t *testing.T) {
	e := New()
	ch := &countHandler{}

	// Two pooled one-shots, a component's Handler and a Func, then an
	// owned timer that fires twice (Reset rearm) and the pooled Func
	// that rearms it.
	e.ScheduleHandler(time.Millisecond, Func(func() {}))
	e.ScheduleHandler(2*time.Millisecond, ch)
	var owned Timer
	e.InitTimer(&owned, ch)
	owned.Reset(4 * time.Millisecond)
	e.AtHandler(Time(0).Add(5*time.Millisecond), Func(func() { owned.Reset(time.Millisecond) }))
	e.Run()

	m := e.Metrics()
	if m.EventsPooled != 3 {
		t.Fatalf("pooled events = %d, want 3", m.EventsPooled)
	}
	if m.EventsOwned != 2 {
		t.Fatalf("owned events = %d, want 2", m.EventsOwned)
	}
	if sum := m.EventsPooled + m.EventsOwned; sum != e.Executed {
		t.Fatalf("sum over kinds = %d, Executed = %d", sum, e.Executed)
	}
	// Every pooled event recycled its timer.
	if m.TimerRecycles != 3 {
		t.Fatalf("timer recycles = %d, want 3", m.TimerRecycles)
	}
	// Four timers were queued before anything fired.
	if m.HeapHighWater != 4 {
		t.Fatalf("heap high water = %d, want 4", m.HeapHighWater)
	}
}

func TestMetricsHighWaterSurvivesDrain(t *testing.T) {
	e := New()
	for i := 0; i < 10; i++ {
		e.ScheduleHandler(time.Duration(i)*time.Millisecond, Func(func() {}))
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
