package bufferqoe

import (
	"io"

	"bufferqoe/internal/telemetry"
)

// Collector aggregates runtime telemetry from every layer of a
// session: the cell engine's cache counters and gauges, per-cell wall
// time and build/sim/score phase breakdowns, simulator event and pool
// counters, and sweep progress. Create one with NewCollector, attach
// it with Session.SetCollector or per-run via Options.Collector, and
// read it with Metrics, WritePrometheus, or a JSON-lines trace
// (TraceTo).
//
// Telemetry is observational only: attaching a collector never
// changes results, cache identity, or determinism — cells answered
// from the cache report nothing, and all recording is allocation-free
// (see internal/telemetry). A nil *Collector is safe everywhere and
// disables collection.
type Collector struct {
	inner *telemetry.Collector
}

// NewCollector creates a live collector. One collector may serve
// several sessions or runs concurrently.
func NewCollector() *Collector {
	return &Collector{inner: telemetry.New()}
}

// raw unwraps the internal collector; nil-safe.
func (c *Collector) raw() *telemetry.Collector {
	if c == nil {
		return nil
	}
	return c.inner
}

// TraceTo streams one JSON object per freshly computed cell to w —
// the cell's label, per-phase wall time, and simulator event counts;
// see DESIGN.md "Observability" for the schema. nil disables tracing.
func (c *Collector) TraceTo(w io.Writer) { c.raw().TraceTo(w) }

// WritePrometheus renders the collector's metrics in the Prometheus
// text exposition format (the same rendering `qoebench -metrics-addr`
// serves at /metrics).
func (c *Collector) WritePrometheus(w io.Writer) error { return c.raw().WritePrometheus(w) }

// Metrics snapshots the collector.
func (c *Collector) Metrics() Metrics {
	if c == nil {
		return Metrics{}
	}
	return metricsFromSnapshot(c.inner.Snapshot())
}

// Metrics is a point-in-time snapshot of a session's telemetry. The
// cache/gauge fields are always available (Session.Metrics fills them
// from engine counters even without a collector); wall-time, phase,
// and simulator fields require an attached Collector, since only
// instrumented cells report them.
type Metrics struct {
	// UptimeSeconds is the time since the collector was created (0
	// without a collector).
	UptimeSeconds float64 `json:"uptime_s"`

	// CellsSimulated counts cells computed fresh (cache misses);
	// CacheHits counts cells answered from the session cache;
	// CellsCanceled counts cells abandoned by context cancellation.
	CellsSimulated uint64 `json:"cells_simulated"`
	CacheHits      uint64 `json:"cache_hits"`
	CellsCanceled  uint64 `json:"cells_canceled"`
	// CellsInFlight, QueueDepth, and Waiters are live gauges: cells
	// executing, callers waiting for a worker slot, and callers
	// coalesced onto another caller's in-flight cell.
	CellsInFlight int64 `json:"cells_in_flight"`
	QueueDepth    int64 `json:"queue_depth"`
	Waiters       int64 `json:"waiters"`

	// StoreHits, StoreMisses, and StoreWrites report the persistent
	// store tier: cells answered from disk, lookups that fell through
	// to a compute, and fresh results persisted. StoreLoadP95Seconds
	// summarizes store lookup latency (collector only).
	StoreHits           uint64  `json:"store_hits"`
	StoreMisses         uint64  `json:"store_misses"`
	StoreWrites         uint64  `json:"store_writes"`
	StoreLoadP95Seconds float64 `json:"store_load_p95_s"`

	// WorkerBusySeconds is cumulative wall time workers spent
	// executing cells; divide by elapsed time x Parallelism() for
	// utilization.
	WorkerBusySeconds float64 `json:"worker_busy_s"`
	// CellWallCount/MeanSeconds/P50/P95 summarize the per-cell wall
	// time distribution of freshly computed cells.
	CellWallCount       uint64  `json:"cell_wall_count"`
	CellWallMeanSeconds float64 `json:"cell_wall_mean_s"`
	CellWallP50Seconds  float64 `json:"cell_wall_p50_s"`
	CellWallP95Seconds  float64 `json:"cell_wall_p95_s"`

	// SimEvents is the total simulator events fired across all traced
	// cells; SimEventsByTier splits it by kind of event ("pooled"
	// one-shots, "owned" timers).
	SimEvents       uint64            `json:"sim_events"`
	SimEventsByTier map[string]uint64 `json:"sim_events_by_tier"`
	// TimerRecycles / PacketRecycles count pool reuse in the simulator
	// core and the packet layer; HeapHighWater is the deepest any
	// cell's timer heap ran, NearHighWater the deepest its near tier
	// (timers due within a millisecond of arming) ran.
	TimerRecycles  uint64 `json:"timer_recycles"`
	PacketRecycles uint64 `json:"packet_recycles"`
	HeapHighWater  int    `json:"heap_high_water"`
	NearHighWater  int    `json:"near_high_water"`

	// PhaseSeconds is cumulative per-cell wall time by phase ("build",
	// "sim", "score") across the PhaseCells cells that reported a
	// breakdown.
	PhaseSeconds map[string]float64 `json:"phase_s"`
	PhaseCells   uint64             `json:"phase_cells"`

	// SweepCells counts sweep cells completed (cache hits included).
	SweepCells uint64 `json:"sweep_cells"`

	// RepsTotal and RepCells summarize replication: repetitions
	// actually run across the RepCells rep-loop cells that reported
	// (RepsTotal shrinks below RepCells x Options.Reps when the
	// stopping rule saves work). CellsStoppedEarly counts the cells the
	// rule halted before the configured cap, and CellsHitHorizon the
	// cells whose simulated-time horizon arrived before their last rep
	// (a VoIP cell runs at most 112 calls).
	RepsTotal         float64 `json:"reps_total"`
	RepCells          uint64  `json:"rep_cells"`
	CellsStoppedEarly uint64  `json:"cells_stopped_early"`
	CellsHitHorizon   uint64  `json:"cells_hit_horizon"`
}

func metricsFromSnapshot(s telemetry.Snapshot) Metrics {
	m := Metrics{
		UptimeSeconds:     s.UptimeSeconds,
		CellsSimulated:    s.CacheMisses,
		CacheHits:         s.CacheHits,
		CellsCanceled:     s.CellsCanceled,
		CellsInFlight:     s.CellsInFlight,
		QueueDepth:        s.QueueDepth,
		Waiters:           s.Waiters,
		StoreHits:         s.StoreHits,
		StoreMisses:       s.StoreMisses,
		StoreWrites:       s.StoreWrites,
		WorkerBusySeconds: s.WorkerBusySeconds,
		CellWallCount:     s.CellWall.Count,
		SimEvents:         s.Sim.Events(),
		SimEventsByTier: map[string]uint64{
			"pooled": s.Sim.EventsPooled,
			"owned":  s.Sim.EventsOwned,
		},
		TimerRecycles:  s.Sim.TimerRecycles,
		PacketRecycles: s.Sim.PacketRecycles,
		HeapHighWater:  s.Sim.HeapHighWater,
		NearHighWater:  s.Sim.NearHighWater,
		PhaseSeconds:   s.PhaseSeconds,
		PhaseCells:     s.PhaseCells,
		SweepCells:     s.SweepCells,

		RepsTotal:         s.RepsPerCell.Sum,
		RepCells:          s.RepsPerCell.Count,
		CellsStoppedEarly: s.CellsStoppedEarly,
		CellsHitHorizon:   s.CellsHitHorizon,
	}
	if s.CellWall.Count > 0 {
		m.CellWallMeanSeconds = s.CellWall.Sum / float64(s.CellWall.Count)
		m.CellWallP50Seconds = s.CellWall.Quantile(0.50)
		m.CellWallP95Seconds = s.CellWall.Quantile(0.95)
	}
	if s.StoreLoad.Count > 0 {
		m.StoreLoadP95Seconds = s.StoreLoad.Quantile(0.95)
	}
	return m
}

// SetCollector attaches a collector to the session (nil detaches):
// the engine mirrors its counters into it and every subsequent run
// reports per-cell telemetry, unless a run brings its own
// Options.Collector. Attach before submitting work so collector
// totals reconcile with Stats deltas.
func (s *Session) SetCollector(c *Collector) { s.inner.SetCollector(c.raw()) }

// Metrics snapshots the session's telemetry. Without an attached
// collector only the engine-derived fields (cells simulated, cache
// hits, cancellations, and the live gauges) are populated; with one,
// the wall-time, phase, simulator, and sweep fields fill in too.
func (s *Session) Metrics() Metrics {
	if col := s.inner.Collector(); col != nil {
		return metricsFromSnapshot(col.Snapshot())
	}
	st := s.inner.EngineStats()
	return Metrics{
		CellsSimulated: st.Misses,
		CacheHits:      st.Hits,
		CellsCanceled:  st.Canceled,
		CellsInFlight:  st.InFlight,
		QueueDepth:     st.QueueDepth,
		Waiters:        st.Waiters,
		StoreHits:      st.StoreHits,
		StoreMisses:    st.StoreMisses,
		StoreWrites:    st.StoreWrites,
	}
}
