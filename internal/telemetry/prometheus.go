package telemetry

import (
	"fmt"
	"io"
	"math"
)

// WritePrometheus renders the collector in the Prometheus text
// exposition format (version 0.0.4), hand-written so the repository
// stays dependency-free. Safe on a nil collector (writes nothing).
func (c *Collector) WritePrometheus(w io.Writer) error {
	if c == nil {
		return nil
	}
	s := c.Snapshot()
	ew := &errWriter{w: w}

	counter := func(name, help string, v uint64) {
		fmt.Fprintf(ew, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
	}
	gauge := func(name, help string, v int64) {
		fmt.Fprintf(ew, "# HELP %s %s\n# TYPE %s gauge\n%s %d\n", name, help, name, name, v)
	}
	fcounter := func(name, help string, v float64) {
		fmt.Fprintf(ew, "# HELP %s %s\n# TYPE %s counter\n%s %g\n", name, help, name, name, v)
	}

	counter("qoe_cells_simulated_total", "Cells computed fresh (cache misses).", s.CacheMisses)
	counter("qoe_cache_hits_total", "Cells answered from the session cache.", s.CacheHits)
	counter("qoe_cells_canceled_total", "Cells abandoned by context cancellation.", s.CellsCanceled)
	gauge("qoe_cells_in_flight", "Cells executing right now.", s.CellsInFlight)
	gauge("qoe_cell_queue_depth", "Cells waiting for a worker slot.", s.QueueDepth)
	gauge("qoe_cell_waiters", "Callers blocked on another caller's in-flight cell.", s.Waiters)
	fcounter("qoe_worker_busy_seconds_total", "Wall time workers spent executing cells.", s.WorkerBusySeconds)

	fmt.Fprintf(ew, "# HELP qoe_cell_wall_seconds Wall time per freshly computed cell.\n# TYPE qoe_cell_wall_seconds histogram\n")
	for _, b := range s.CellWall.Buckets {
		le := "+Inf"
		if !math.IsInf(b.LE, 1) {
			le = fmt.Sprintf("%g", b.LE)
		}
		fmt.Fprintf(ew, "qoe_cell_wall_seconds_bucket{le=%q} %d\n", le, b.Count)
	}
	fmt.Fprintf(ew, "qoe_cell_wall_seconds_sum %g\nqoe_cell_wall_seconds_count %d\n", s.CellWall.Sum, s.CellWall.Count)

	counter("qoe_store_hits_total", "Cells answered from the persistent store tier.", s.StoreHits)
	counter("qoe_store_misses_total", "Persistent-store lookups that fell through to a compute.", s.StoreMisses)
	counter("qoe_store_writes_total", "Fresh results accepted by the persistent store.", s.StoreWrites)
	fmt.Fprintf(ew, "# HELP qoe_store_load_seconds Persistent-store lookup latency.\n# TYPE qoe_store_load_seconds histogram\n")
	for _, b := range s.StoreLoad.Buckets {
		le := "+Inf"
		if !math.IsInf(b.LE, 1) {
			le = fmt.Sprintf("%g", b.LE)
		}
		fmt.Fprintf(ew, "qoe_store_load_seconds_bucket{le=%q} %d\n", le, b.Count)
	}
	fmt.Fprintf(ew, "qoe_store_load_seconds_sum %g\nqoe_store_load_seconds_count %d\n", s.StoreLoad.Sum, s.StoreLoad.Count)

	fmt.Fprintf(ew, "# HELP qoe_sim_events_total Simulator events fired, by kind of event.\n# TYPE qoe_sim_events_total counter\n")
	fmt.Fprintf(ew, "qoe_sim_events_total{tier=\"pooled\"} %d\n", s.Sim.EventsPooled)
	fmt.Fprintf(ew, "qoe_sim_events_total{tier=\"owned\"} %d\n", s.Sim.EventsOwned)
	counter("qoe_sim_timer_recycles_total", "Pooled timers returned to the free list.", s.Sim.TimerRecycles)
	counter("qoe_net_packet_recycles_total", "Packets returned to the netem packet pool.", s.Sim.PacketRecycles)
	gauge("qoe_sim_heap_high_water", "Deepest the simulator timer heap ever ran.", int64(s.Sim.HeapHighWater))
	gauge("qoe_sim_near_high_water", "Deepest the near tier of the simulator timer heap ever ran.", int64(s.Sim.NearHighWater))

	fmt.Fprintf(ew, "# HELP qoe_cell_phase_seconds_total Per-cell wall time by phase.\n# TYPE qoe_cell_phase_seconds_total counter\n")
	for ph := Phase(0); ph < PhaseCount; ph++ {
		fmt.Fprintf(ew, "qoe_cell_phase_seconds_total{phase=%q} %g\n", ph.String(), s.PhaseSeconds[ph.String()])
	}
	counter("qoe_cell_phase_cells_total", "Cells that reported a phase breakdown.", s.PhaseCells)

	counter("qoe_content_hits_total", "Reference media found in the session's content cache.", s.ContentHits)
	counter("qoe_content_synthesized_total", "Reference media synthesized (first use, or again after eviction).", s.ContentSynthesized)
	counter("qoe_content_evicted_total", "Reference media evicted to stay inside the cache's byte bound.", s.ContentEvicted)
	gauge("qoe_content_resident_bytes", "Reference media bytes resident after the latest synthesis.", s.ContentBytes)

	fmt.Fprintf(ew, "# HELP qoe_reps_per_cell Repetitions actually run per rep-loop cell.\n# TYPE qoe_reps_per_cell histogram\n")
	for _, b := range s.RepsPerCell.Buckets {
		le := "+Inf"
		if !math.IsInf(b.LE, 1) {
			le = fmt.Sprintf("%g", b.LE)
		}
		fmt.Fprintf(ew, "qoe_reps_per_cell_bucket{le=%q} %d\n", le, b.Count)
	}
	fmt.Fprintf(ew, "qoe_reps_per_cell_sum %g\nqoe_reps_per_cell_count %d\n", s.RepsPerCell.Sum, s.RepsPerCell.Count)
	counter("qoe_cells_stopped_early_total", "Cells halted early by the adaptive-replication CI rule.", s.CellsStoppedEarly)
	counter("qoe_cells_hit_horizon_total", "Rep-loop cells cut off by the simulated-time horizon before their last rep.", s.CellsHitHorizon)

	counter("qoe_sweep_cells_total", "Sweep cells completed (including cache hits).", s.SweepCells)
	fcounter("qoe_collector_uptime_seconds_total", "Seconds since the collector was created.", s.UptimeSeconds)
	return ew.err
}

// errWriter sticks at the first write error so the metric emitters
// above stay unconditional.
type errWriter struct {
	w   io.Writer
	err error
}

func (e *errWriter) Write(p []byte) (int, error) {
	if e.err != nil {
		return 0, e.err
	}
	n, err := e.w.Write(p)
	e.err = err
	return n, err
}
