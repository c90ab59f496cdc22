package engine

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"bufferqoe/internal/telemetry"
)

// TestCollectorReconcilesWithStats runs a mixed workload — fresh
// computes, warm cache hits, coalesced waiters, and an abandoned
// (canceled) batch — and asserts the collector's counters reconcile
// exactly with engine.Stats, with every gauge back at zero. Run under
// -race this also exercises the collector's concurrency safety.
func TestCollectorReconcilesWithStats(t *testing.T) {
	e := New(2)
	col := telemetry.New()
	e.SetCollector(col)
	if e.Collector() != col {
		t.Fatal("Collector() did not return the attached collector")
	}

	slow := func(CellSpec, uint64, Scratch) any {
		time.Sleep(5 * time.Millisecond)
		return "v"
	}

	// Phase 1: fresh computes with coalesced waiters — 4 goroutines per
	// spec race for 3 distinct specs; one computes, the rest coalesce.
	var wg sync.WaitGroup
	for buf := 0; buf < 3; buf++ {
		sp := spec(64 << buf)
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if v := e.Do(sp, slow); v != "v" {
					t.Errorf("Do = %v", v)
				}
			}()
		}
	}
	wg.Wait()

	// Phase 2: warm-cache hits.
	for buf := 0; buf < 3; buf++ {
		e.Do(spec(64<<buf), slow)
	}

	// Phase 3: a canceled batch. Workers=2 and the cells sleep, so a
	// prompt cancel abandons the queued remainder; re-checks may also
	// cancel cells that won a slot.
	ctx, cancel := context.WithCancel(context.Background())
	tasks := make([]Task, 8)
	for i := range tasks {
		tasks[i] = NewTask(spec(1000+i), CellFunc(slow))
	}
	done := make(chan struct{})
	var sawCancel atomic.Bool
	go func() {
		defer close(done)
		e.SubmitBatch(ctx, tasks, func(_ int, _ any, err error) {
			if errors.Is(err, ErrCanceled) {
				sawCancel.Store(true)
			}
		})
	}()
	time.Sleep(2 * time.Millisecond)
	cancel()
	<-done
	if !sawCancel.Load() {
		t.Fatal("canceled batch reported no ErrCanceled outcomes")
	}

	st := e.Stats()
	if st.Canceled == 0 {
		t.Fatal("Stats.Canceled = 0 after canceled batch")
	}
	if st.Hits == 0 || st.Misses == 0 {
		t.Fatalf("expected hits and misses, got %+v", st)
	}

	// Counters reconcile exactly: the collector was attached before any
	// activity, so its totals equal the engine's.
	if got, want := col.CacheHits.Value(), st.Hits; got != want {
		t.Errorf("collector hits = %d, stats = %d", got, want)
	}
	if got, want := col.CacheMisses.Value(), st.Misses; got != want {
		t.Errorf("collector misses = %d, stats = %d", got, want)
	}
	if got, want := col.CellsCanceled.Value(), st.Canceled; got != want {
		t.Errorf("collector canceled = %d, stats = %d", got, want)
	}
	// Every computed cell went through the wall-time histogram.
	if got, want := col.CellWall.Count(), st.Misses; got != want {
		t.Errorf("wall histogram count = %d, misses = %d", got, want)
	}
	if col.WorkerBusy.Value() == 0 {
		t.Error("worker busy time not recorded")
	}

	// All gauges settle at zero after the run, in Stats and collector
	// alike — including after canceled-batch abandonment.
	if st.InFlight != 0 || st.QueueDepth != 0 || st.Waiters != 0 {
		t.Errorf("stats gauges nonzero after drain: %+v", st)
	}
	s := col.Snapshot()
	if s.CellsInFlight != 0 || s.QueueDepth != 0 || s.Waiters != 0 {
		t.Errorf("collector gauges nonzero after drain: %+v", s)
	}
}

// TestDetachedCollectorSeesNothing verifies the nil fast path: an
// engine without a collector runs normally and records nothing.
func TestDetachedCollectorSeesNothing(t *testing.T) {
	e := New(1)
	col := telemetry.New()
	e.SetCollector(col)
	e.SetCollector(nil)
	e.Do(spec(64), func(CellSpec, uint64, Scratch) any { return 1 })
	if col.CacheMisses.Value() != 0 || col.CellWall.Count() != 0 {
		t.Fatalf("detached collector recorded activity: %+v", col.Snapshot())
	}
	st := e.Stats()
	if st.Misses != 1 || st.InFlight != 0 {
		t.Fatalf("stats wrong without collector: %+v", st)
	}
}

// TestStatsGaugesLive observes the in-flight and waiters gauges while
// cells are actually executing.
func TestStatsGaugesLive(t *testing.T) {
	e := New(1)
	col := telemetry.New()
	e.SetCollector(col)

	started := make(chan struct{})
	release := make(chan struct{})
	blocking := func(CellSpec, uint64, Scratch) any {
		close(started)
		<-release
		return "v"
	}
	go e.Do(spec(64), blocking)
	<-started

	// A coalesced waiter on the same spec.
	waiterIn := make(chan struct{})
	go func() {
		close(waiterIn)
		e.Do(spec(64), blocking)
	}()
	<-waiterIn
	// A queued cell: the single worker slot is held by the blocking cell.
	go e.Do(spec(128), func(CellSpec, uint64, Scratch) any { return "q" })

	deadline := time.After(2 * time.Second)
	for {
		st := e.Stats()
		if st.InFlight == 1 && st.Waiters == 1 && st.QueueDepth == 1 {
			break
		}
		select {
		case <-deadline:
			t.Fatalf("gauges never converged: %+v", st)
		case <-time.After(time.Millisecond):
		}
	}
	if s := col.Snapshot(); s.CellsInFlight != 1 || s.Waiters != 1 || s.QueueDepth != 1 {
		t.Fatalf("collector gauges diverge: %+v", s)
	}
	close(release)
}
