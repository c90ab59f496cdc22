package bufferqoe

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"strings"
	"testing"
)

// TestSessionTelemetryEndToEnd: a collector attached to a session
// observes a sweep at every layer — engine counters, per-cell phase
// breakdowns, simulator metrics, sweep progress — and reconciles with
// EngineStats; the Prometheus rendering and the JSON-lines trace both
// carry the same run.
func TestSessionTelemetryEndToEnd(t *testing.T) {
	sw := streamSweepSpec()
	o := sweepOpts()
	total := len(sw.Scenarios) * len(sw.Buffers) * len(sw.Probes)

	col := NewCollector()
	var trace bytes.Buffer
	col.TraceTo(&trace)
	s := NewSession()
	s.SetCollector(col)

	grid, err := s.Sweep(sw, o)
	if err != nil {
		t.Fatal(err)
	}

	st := s.Stats()
	m := s.Metrics()
	if m.CellsSimulated == 0 || m.CellsSimulated != st.Misses {
		t.Fatalf("CellsSimulated = %d, engine misses %d", m.CellsSimulated, st.Misses)
	}
	if m.CacheHits != st.Hits {
		t.Fatalf("CacheHits = %d, engine hits %d", m.CacheHits, st.Hits)
	}
	if m.SweepCells != uint64(total) {
		t.Fatalf("SweepCells = %d, want %d", m.SweepCells, total)
	}
	if m.PhaseCells != m.CellsSimulated {
		t.Fatalf("PhaseCells = %d, want one per simulated cell (%d)", m.PhaseCells, m.CellsSimulated)
	}
	if m.CellWallCount != m.CellsSimulated || m.CellWallMeanSeconds <= 0 {
		t.Fatalf("cell wall histogram: count %d mean %v", m.CellWallCount, m.CellWallMeanSeconds)
	}
	if m.SimEvents == 0 || m.PacketRecycles == 0 || m.HeapHighWater == 0 {
		t.Fatalf("sim metrics empty: %+v", m)
	}
	if m.PhaseSeconds["sim"] <= 0 {
		t.Fatalf("no simulation phase time recorded: %v", m.PhaseSeconds)
	}
	if st.InFlight != 0 || st.QueueDepth != 0 || st.Waiters != 0 {
		t.Fatalf("gauges nonzero at idle: %+v", st)
	}

	var prom bytes.Buffer
	if err := col.WritePrometheus(&prom); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"qoe_cells_simulated_total", "qoe_cell_wall_seconds_bucket", "qoe_sim_events_total"} {
		if !strings.Contains(prom.String(), want) {
			t.Fatalf("prometheus output missing %s:\n%s", want, prom.String())
		}
	}

	lines := 0
	sc := bufio.NewScanner(&trace)
	for sc.Scan() {
		lines++
		var ev map[string]any
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("trace line %d not JSON: %v", lines, err)
		}
		if ev["cell"] == "" || ev["kind"] != "cell" {
			t.Fatalf("trace line %d malformed: %v", lines, ev)
		}
	}
	if uint64(lines) != m.CellsSimulated {
		t.Fatalf("trace has %d events, want one per simulated cell (%d)", lines, m.CellsSimulated)
	}

	// Observational-only: an unobserved session produces bit-identical
	// cells for the same sweep.
	plain, err := NewSession().Sweep(sw, o)
	if err != nil {
		t.Fatal(err)
	}
	for i := range plain.Cells {
		if plain.Cells[i] != grid.Cells[i] {
			t.Fatalf("collector changed cell %d: %+v vs %+v", i, grid.Cells[i], plain.Cells[i])
		}
	}
}

// TestHorizonStopIsNotAnEarlyStop: a VoIP cell asked for 120 calls
// runs the 112 that fit in its 30-minute horizon, and the telemetry
// says the horizon cut it short — in Metrics and in Prometheus — not
// the CI rule, which is off.
func TestHorizonStopIsNotAnEarlyStop(t *testing.T) {
	col := NewCollector()
	s := NewSession()
	s.SetCollector(col)
	sw := Sweep{Scenarios: []Scenario{{Workload: "noBG"}}, Buffers: []int{8}, Probes: []Probe{{Media: VoIP}}}
	if _, err := s.Sweep(sw, Options{Reps: 120}); err != nil {
		t.Fatal(err)
	}
	if m := s.Metrics(); m.RepsTotal != 112 || m.RepCells != 1 || m.CellsHitHorizon != 1 || m.CellsStoppedEarly != 0 {
		t.Fatalf("reps %v over %d cells, %d horizon stops, %d early stops; want 112, 1, 1, 0",
			m.RepsTotal, m.RepCells, m.CellsHitHorizon, m.CellsStoppedEarly)
	}
	var prom bytes.Buffer
	if err := col.WritePrometheus(&prom); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"qoe_cells_hit_horizon_total 1\n", "qoe_cells_stopped_early_total 0\n"} {
		if !strings.Contains(prom.String(), want) {
			t.Errorf("prometheus output missing %q", want)
		}
	}
}

// TestMetricsWithoutCollector: Session.Metrics still reports the
// engine-derived fields when no collector is attached.
func TestMetricsWithoutCollector(t *testing.T) {
	s := NewSession()
	if _, err := s.Sweep(streamSweepSpec(), sweepOpts()); err != nil {
		t.Fatal(err)
	}
	m := s.Metrics()
	st := s.Stats()
	if m.CellsSimulated != st.Misses || m.CellsSimulated == 0 {
		t.Fatalf("CellsSimulated = %d, engine misses %d", m.CellsSimulated, st.Misses)
	}
	if m.PhaseCells != 0 || m.SweepCells != 0 || m.UptimeSeconds != 0 {
		t.Fatalf("collector-only fields populated without a collector: %+v", m)
	}
}

// TestOptionsCollectorPerRun: a collector passed per run via Options
// observes that run's cells without being attached to the session.
func TestOptionsCollectorPerRun(t *testing.T) {
	col := NewCollector()
	o := sweepOpts()
	o.Collector = col
	s := NewSession()
	if _, err := s.Sweep(streamSweepSpec(), sweepOpts()); err != nil { // warm, unobserved
		t.Fatal(err)
	}
	if _, err := s.Sweep(streamSweepSpec(), o); err != nil { // warm again, observed
		t.Fatal(err)
	}
	m := col.Metrics()
	if m.PhaseCells != 0 {
		t.Fatalf("cache hits reported phase telemetry: %d cells", m.PhaseCells)
	}
	if want := len(streamSweepSpec().Scenarios) * 3; int(m.SweepCells) != want {
		t.Fatalf("SweepCells = %d, want %d", m.SweepCells, want)
	}
	if _, err := NewSession().Sweep(streamSweepSpec(), o); err != nil { // cold, observed
		t.Fatal(err)
	}
	m = col.Metrics()
	if m.PhaseCells == 0 || m.SimEvents == 0 {
		t.Fatalf("per-run collector saw no cell telemetry: %+v", m)
	}
}

// TestProgressRateETA: streaming progress carries elapsed time, a
// positive completion rate, and an ETA that reaches zero on the final
// cell; the recommender's progress shares the same contract.
func TestProgressRateETA(t *testing.T) {
	var events []Progress
	o := sweepOpts()
	o.OnProgress = func(p Progress) { events = append(events, p) }
	s := NewSession()
	if _, err := s.Sweep(streamSweepSpec(), o); err != nil {
		t.Fatal(err)
	}
	if len(events) == 0 {
		t.Fatal("no progress events")
	}
	for i, p := range events {
		if p.Elapsed <= 0 || p.Rate <= 0 {
			t.Fatalf("event %d: Elapsed %v Rate %v", i, p.Elapsed, p.Rate)
		}
		if i > 0 && p.Elapsed < events[i-1].Elapsed {
			t.Fatalf("elapsed went backwards at event %d", i)
		}
	}
	last := events[len(events)-1]
	if last.ETA != 0 {
		t.Fatalf("final event has ETA %v, want 0", last.ETA)
	}
	if mid := events[0]; mid.Completed < mid.Total && mid.ETA <= 0 {
		t.Fatalf("mid-run event has no ETA: %+v", mid)
	}

	events = nil
	rec, err := s.Recommend(context.Background(), RecommendSpec{
		Scenario: Scenario{Workload: "short-few", Direction: Up},
		Probes:   []Probe{{Media: VoIP}},
		Buffers:  []int{8, 32, 128},
	}, o)
	if err != nil {
		t.Fatal(err)
	}
	if rec == nil || len(events) == 0 {
		t.Fatal("recommend produced no progress")
	}
	for i, p := range events {
		if p.Elapsed <= 0 || p.Rate <= 0 {
			t.Fatalf("recommend event %d: Elapsed %v Rate %v", i, p.Elapsed, p.Rate)
		}
	}
}
