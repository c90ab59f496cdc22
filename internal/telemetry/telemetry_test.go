package telemetry

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterGaugeHighWater(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Fatalf("counter = %d, want 5", c.Value())
	}
	var g Gauge
	g.Add(3)
	g.Add(-1)
	if g.Value() != 2 {
		t.Fatalf("gauge = %d, want 2", g.Value())
	}
	g.Set(-7)
	if g.Value() != -7 {
		t.Fatalf("gauge = %d, want -7", g.Value())
	}
	var h HighWater
	h.Observe(3)
	h.Observe(1)
	h.Observe(9)
	h.Observe(4)
	if h.Value() != 9 {
		t.Fatalf("high water = %d, want 9", h.Value())
	}
}

func TestHistogram(t *testing.T) {
	h := NewHistogram(1, 2, 5)
	for _, v := range []float64{0.5, 1, 1.5, 3, 10} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Fatalf("count = %d, want 5", h.Count())
	}
	if got := h.Sum(); math.Abs(got-16) > 1e-9 {
		t.Fatalf("sum = %g, want 16", got)
	}
	s := h.Snapshot()
	wantCum := []uint64{2, 3, 4, 5} // le=1:{0.5,1}, le=2:+{1.5}, le=5:+{3}, +Inf:+{10}
	if len(s.Buckets) != len(wantCum) {
		t.Fatalf("buckets = %d, want %d", len(s.Buckets), len(wantCum))
	}
	for i, w := range wantCum {
		if s.Buckets[i].Count != w {
			t.Fatalf("bucket %d cum = %d, want %d", i, s.Buckets[i].Count, w)
		}
	}
	if !math.IsInf(s.Buckets[3].LE, 1) {
		t.Fatalf("last bucket LE = %v, want +Inf", s.Buckets[3].LE)
	}
	// Median lands in the (1,2] bucket.
	if q := s.Quantile(0.5); q <= 1 || q > 2 {
		t.Fatalf("p50 = %g, want in (1,2]", q)
	}
	// p99 lands in the overflow bucket and clamps to the last edge.
	if q := s.Quantile(0.99); q != 5 {
		t.Fatalf("p99 = %g, want 5 (clamped)", q)
	}
	if q := (HistSnapshot{}).Quantile(0.5); q != 0 {
		t.Fatalf("empty quantile = %g, want 0", q)
	}
}

func TestHistogramBoundsPanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewHistogram accepted non-ascending bounds")
		}
	}()
	NewHistogram(1, 1)
}

func TestNilCollectorIsFree(t *testing.T) {
	var c *Collector
	// Every nil-collector entry point must be a safe no-op.
	c.FlushSim(SimMetrics{EventsPooled: 10})
	c.TraceTo(&bytes.Buffer{})
	if err := c.WritePrometheus(&bytes.Buffer{}); err != nil {
		t.Fatalf("nil WritePrometheus: %v", err)
	}
	if !c.Start().IsZero() {
		t.Fatal("nil Start not zero")
	}
	pc := c.StartCell()
	if pc.Enabled() {
		t.Fatal("nil collector produced an enabled clock")
	}
	pc.Mark(PhaseBuild)
	pc.Done("x", SimMetrics{})
	if s := c.Snapshot(); s.PhaseCells != 0 || s.CacheHits != 0 || s.CellWall.Count != 0 {
		t.Fatalf("nil snapshot recorded data: %+v", s)
	}

	allocs := testing.AllocsPerRun(100, func() {
		pc := c.StartCell()
		pc.Mark(PhaseSim)
		pc.Done("x", SimMetrics{})
		c.FlushSim(SimMetrics{})
	})
	if allocs != 0 {
		t.Fatalf("nil-collector path allocates %v/op, want 0", allocs)
	}
}

func TestRecordingIsAllocationFree(t *testing.T) {
	c := New()
	m := SimMetrics{EventsOwned: 3, EventsPooled: 5, HeapHighWater: 12, NearHighWater: 4}
	allocs := testing.AllocsPerRun(100, func() {
		c.CacheHits.Inc()
		c.CellsInFlight.Add(1)
		c.CellsInFlight.Add(-1)
		c.CellWall.Observe(0.033)
		c.FlushSim(m)
		pc := c.StartCell()
		pc.Mark(PhaseBuild)
		pc.Mark(PhaseSim)
		pc.Done("cell", SimMetrics{})
	})
	if allocs != 0 {
		t.Fatalf("live recording allocates %v/op, want 0", allocs)
	}
}

func TestPhaseClockAndSnapshot(t *testing.T) {
	c := New()
	pc := c.StartCell()
	if !pc.Enabled() {
		t.Fatal("live clock not enabled")
	}
	pc.Mark(PhaseBuild)
	pc.Mark(PhaseSim)
	pc.Done("voip/access/short-few/down@64", SimMetrics{
		EventsPooled: 3, EventsOwned: 5,
		TimerRecycles: 6, PacketRecycles: 7, HeapHighWater: 8, NearHighWater: 3,
	})
	s := c.Snapshot()
	if s.PhaseCells != 1 {
		t.Fatalf("phase cells = %d, want 1", s.PhaseCells)
	}
	if got := s.Sim.Events(); got != 8 {
		t.Fatalf("events = %d, want 8", got)
	}
	if s.Sim.HeapHighWater != 8 || s.Sim.NearHighWater != 3 {
		t.Fatalf("heap high water = %d, near %d; want 8, 3", s.Sim.HeapHighWater, s.Sim.NearHighWater)
	}
	for _, ph := range []string{"build", "sim", "score"} {
		if _, ok := s.PhaseSeconds[ph]; !ok {
			t.Fatalf("snapshot missing phase %q", ph)
		}
	}
	if _, err := json.Marshal(s); err != nil {
		t.Fatalf("snapshot not JSON-serializable: %v", err)
	}
}

func TestSimMetricsAdd(t *testing.T) {
	a := SimMetrics{EventsPooled: 1, HeapHighWater: 5, NearHighWater: 2}
	a.Add(SimMetrics{EventsPooled: 2, EventsOwned: 3, HeapHighWater: 4, NearHighWater: 3, TimerRecycles: 9})
	if a.EventsPooled != 3 || a.EventsOwned != 3 || a.TimerRecycles != 9 {
		t.Fatalf("add mismatch: %+v", a)
	}
	if a.HeapHighWater != 5 {
		t.Fatalf("high water = %d, want max(5,4)=5", a.HeapHighWater)
	}
	if a.NearHighWater != 3 {
		t.Fatalf("near high water = %d, want max(2,3)=3", a.NearHighWater)
	}
}

func TestTraceEvents(t *testing.T) {
	c := New()
	var buf bytes.Buffer
	c.TraceTo(&buf)
	pc := c.StartCell()
	pc.Mark(PhaseBuild)
	pc.Done("web/backbone/tcpmix@256", SimMetrics{EventsPooled: 100, HeapHighWater: 40, NearHighWater: 9})
	pc2 := c.StartCell()
	pc2.Done("web/backbone/tcpmix@512", SimMetrics{})

	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("trace lines = %d, want 2:\n%s", len(lines), buf.String())
	}
	var ev TraceEvent
	if err := json.Unmarshal([]byte(lines[0]), &ev); err != nil {
		t.Fatalf("trace line not JSON: %v", err)
	}
	if ev.Kind != "cell" || ev.Cell != "web/backbone/tcpmix@256" {
		t.Fatalf("trace event = %+v", ev)
	}
	if ev.Events != 100 || ev.Heap != 40 || ev.Near != 9 {
		t.Fatalf("trace sim fields = %+v", ev)
	}

	// Disabling tracing stops emission.
	c.TraceTo(nil)
	pc3 := c.StartCell()
	pc3.Done("x", SimMetrics{})
	if got := strings.Count(buf.String(), "\n"); got != 2 {
		t.Fatalf("trace emitted after disable: %d lines", got)
	}
}

func TestTraceWriterErrorDisablesTracing(t *testing.T) {
	c := New()
	c.TraceTo(failWriter{})
	pc := c.StartCell()
	pc.Done("x", SimMetrics{}) // must not panic
	pc2 := c.StartCell()
	pc2.Done("y", SimMetrics{})
	if c.trace.enc != nil {
		t.Fatal("tracing not disabled after write error")
	}
}

type failWriter struct{}

func (failWriter) Write([]byte) (int, error) { return 0, errWrite }

var errWrite = &writeErr{}

type writeErr struct{}

func (*writeErr) Error() string { return "write failed" }

func TestWritePrometheus(t *testing.T) {
	c := New()
	c.CacheHits.Add(3)
	c.CacheMisses.Add(7)
	c.CellsInFlight.Add(2)
	c.CellWall.Observe(0.02)
	c.FlushSim(SimMetrics{EventsOwned: 11, EventsPooled: 22, HeapHighWater: 33, NearHighWater: 5})
	c.SweepCells.Add(10)

	var buf bytes.Buffer
	if err := c.WritePrometheus(&buf); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
	out := buf.String()
	for _, want := range []string{
		"qoe_cache_hits_total 3",
		"qoe_cells_simulated_total 7",
		"qoe_cells_in_flight 2",
		"qoe_sim_events_total{tier=\"owned\"} 11",
		"qoe_sim_events_total{tier=\"pooled\"} 22",
		"qoe_sim_heap_high_water 33",
		"qoe_sim_near_high_water 5",
		"qoe_cell_wall_seconds_bucket{le=\"+Inf\"} 1",
		"qoe_cell_wall_seconds_count 1",
		"qoe_cell_phase_seconds_total{phase=\"build\"}",
		"qoe_sweep_cells_total 10",
		"# TYPE qoe_cell_wall_seconds histogram",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("prometheus output missing %q", want)
		}
	}
	// A second scrape after failure sticks at the first error.
	if err := c.WritePrometheus(failWriter{}); err == nil {
		t.Fatal("WritePrometheus swallowed write error")
	}
}

func TestConcurrentRecording(t *testing.T) {
	c := New()
	var buf bytes.Buffer
	c.TraceTo(&buf)
	var wg sync.WaitGroup
	const workers, perWorker = 8, 200
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				c.CacheMisses.Inc()
				c.CellsInFlight.Add(1)
				c.CellWall.Observe(0.001 * float64(i%20))
				pc := c.StartCell()
				pc.Mark(PhaseBuild)
				pc.Done("cell", SimMetrics{EventsPooled: 1, HeapHighWater: i})
				c.CellsInFlight.Add(-1)
			}
		}()
	}
	wg.Wait()
	s := c.Snapshot()
	if s.CacheMisses != workers*perWorker {
		t.Fatalf("misses = %d, want %d", s.CacheMisses, workers*perWorker)
	}
	if s.CellsInFlight != 0 {
		t.Fatalf("in flight = %d, want 0", s.CellsInFlight)
	}
	if s.CellWall.Count != workers*perWorker {
		t.Fatalf("wall count = %d, want %d", s.CellWall.Count, workers*perWorker)
	}
	if s.Sim.EventsPooled != workers*perWorker {
		t.Fatalf("events = %d, want %d", s.Sim.EventsPooled, workers*perWorker)
	}
	if s.Sim.HeapHighWater != perWorker-1 {
		t.Fatalf("heap high water = %d, want %d", s.Sim.HeapHighWater, perWorker-1)
	}
	if got := strings.Count(buf.String(), "\n"); got != workers*perWorker {
		t.Fatalf("trace lines = %d, want %d", got, workers*perWorker)
	}
}

func TestPhaseString(t *testing.T) {
	if PhaseBuild.String() != "build" || PhaseSim.String() != "sim" || PhaseScore.String() != "score" {
		t.Fatal("phase labels changed")
	}
	if Phase(99).String() != "unknown" {
		t.Fatal("out-of-range phase label")
	}
}

func TestStartAndUptime(t *testing.T) {
	c := New()
	if c.Start().IsZero() {
		t.Fatal("live Start is zero")
	}
	time.Sleep(time.Millisecond)
	if s := c.Snapshot(); s.UptimeSeconds <= 0 {
		t.Fatalf("uptime = %g, want > 0", s.UptimeSeconds)
	}
}
