package telemetry

import (
	"sync"
	"time"
)

// Phase indexes the per-cell phase breakdown: building the testbed,
// running the discrete-event simulation, and scoring the result into a
// QoE value.
type Phase int

const (
	PhaseBuild Phase = iota
	PhaseSim
	PhaseScore
	PhaseCount
)

// String returns the phase's trace/metric label.
func (p Phase) String() string {
	switch p {
	case PhaseBuild:
		return "build"
	case PhaseSim:
		return "sim"
	case PhaseScore:
		return "score"
	default:
		return "unknown"
	}
}

// SimMetrics is one cell's worth of simulator-core counters, flushed
// into the Collector after the cell's engines have finished. The sim
// layer keeps these as plain ints (events fire at MHz rates; per-event
// atomics would be measurable) and the experiments layer hands the
// totals over once per cell.
type SimMetrics struct {
	// Events fired, by kind of event: pooled one-shots and
	// caller-owned reschedulable timers.
	EventsPooled uint64 `json:"events_pooled"`
	EventsOwned  uint64 `json:"events_owned"`
	// TimerRecycles counts pooled timers returned to the free list.
	TimerRecycles uint64 `json:"timer_recycles"`
	// PacketRecycles counts netem packets returned to the packet pool.
	PacketRecycles uint64 `json:"packet_recycles"`
	// HeapHighWater is the deepest the timer heap ever ran, both tiers
	// together; NearHighWater the deepest its near tier ran.
	HeapHighWater int `json:"heap_high_water"`
	NearHighWater int `json:"near_high_water"`
}

// Events returns the total events fired across both kinds.
func (m SimMetrics) Events() uint64 {
	return m.EventsPooled + m.EventsOwned
}

// Add accumulates another engine's metrics (a cell may run several
// sim engines — e.g. warmup reps — that all report into one total).
func (m *SimMetrics) Add(o SimMetrics) {
	m.EventsPooled += o.EventsPooled
	m.EventsOwned += o.EventsOwned
	m.TimerRecycles += o.TimerRecycles
	m.PacketRecycles += o.PacketRecycles
	m.HeapHighWater = max(m.HeapHighWater, o.HeapHighWater)
	m.NearHighWater = max(m.NearHighWater, o.NearHighWater)
}

// ContentUse is one cell's use of its session's reference-media cache
// (speech recordings, rendered clips): how many pieces it found there,
// how many it had to synthesize and the wall time that took. The time
// is part of whichever phase asked — sim for a recording fetched as
// its call starts, build for a clip — and stays 0 without a collector.
type ContentUse struct {
	Hits, Synthesized int
	SynthTime         time.Duration
}

// Collector aggregates metrics from every layer of a run. A nil
// *Collector is the disabled state: every method no-ops, so call
// sites gate on a single nil check and pay nothing else. All fields
// are preallocated by New; recording is allocation-free.
//
// One Collector may serve several sessions or sweeps concurrently;
// all methods are safe for concurrent use.
//
//qoe:nilsafe
type Collector struct {
	start time.Time

	// Engine-layer: cell cache and worker pool.
	CacheHits     Counter // cells answered from the session cache
	CacheMisses   Counter // cells computed fresh (simulated)
	CellsCanceled Counter // cells abandoned by context cancellation
	CellsInFlight Gauge   // cells executing right now
	QueueDepth    Gauge   // cells waiting for a worker slot
	Waiters       Gauge   // callers blocked on another caller's in-flight cell
	WorkerBusy    Counter // nanoseconds workers spent executing cells
	CellWall      *Histogram

	// Persistent store tier (zero when no store is attached).
	StoreHits   Counter    // cells answered from the on-disk store
	StoreMisses Counter    // store lookups that fell through to a compute
	StoreWrites Counter    // fresh results accepted for persistence
	StoreLoad   *Histogram // store lookup latency in seconds (hit or miss)

	// Sim-layer totals, flushed per cell via FlushSim.
	EventsPooled   Counter
	EventsOwned    Counter
	TimerRecycles  Counter
	PacketRecycles Counter
	HeapHighWater  HighWater
	NearHighWater  HighWater

	// Experiments-layer: per-cell phase breakdown.
	PhaseNanos [PhaseCount]Counter
	PhaseCells Counter // cells that reported a phase breakdown

	// Experiments-layer: the session's reference-media cache.
	ContentHits        Counter // pieces of content found resident (or being built)
	ContentSynthesized Counter // pieces synthesized: first use, or again after eviction
	ContentEvicted     Counter // pieces dropped to stay inside the byte bound
	ContentBytes       Gauge   // resident bytes after the latest synthesis

	// Replication (experiments layer): how many repetitions each
	// rep-loop cell actually ran, how many cells the CI stopping rule
	// halted before their configured Reps, and how many ran into the
	// cell's simulated-time horizon first.
	RepsPerCell       *Histogram
	CellsStoppedEarly Counter
	CellsHitHorizon   Counter

	// Facade-layer: sweep progress.
	SweepCells Counter // sweep cells completed (incl. cache hits)

	mu    sync.Mutex
	trace traceWriter
}

// cellWallBounds are the wall-time histogram's upper bucket edges in
// seconds, spanning sub-millisecond cache-adjacent work up to
// multi-second cold cells.
var cellWallBounds = []float64{
	0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// storeLoadBounds are the store-lookup latency histogram's upper
// bucket edges in seconds: lookups are an index probe plus at most
// one small file read, so the range spans microseconds to the tens of
// milliseconds a cold page cache can cost.
var storeLoadBounds = []float64{
	0.00001, 0.000025, 0.00005, 0.0001, 0.00025, 0.0005,
	0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
}

// repsPerCellBounds are the repetitions-per-cell histogram's upper
// bucket edges: small counts resolve exactly (adaptive runs usually
// stop after a handful of reps), larger ones coarsen.
var repsPerCellBounds = []float64{1, 2, 3, 5, 8, 12, 20, 30}

// New creates a live collector. This is where every allocation the
// collector will ever perform happens.
func New() *Collector {
	return &Collector{
		start:       time.Now(),
		CellWall:    NewHistogram(cellWallBounds...),
		StoreLoad:   NewHistogram(storeLoadBounds...),
		RepsPerCell: NewHistogram(repsPerCellBounds...),
	}
}

// Start returns when the collector was created (the trace epoch).
func (c *Collector) Start() time.Time {
	if c == nil {
		return time.Time{}
	}
	return c.start
}

// FlushSim accumulates one cell's simulator counters. Safe on nil.
//
//qoe:hotpath
func (c *Collector) FlushSim(m SimMetrics) {
	if c == nil {
		return
	}
	c.EventsPooled.Add(m.EventsPooled)
	c.EventsOwned.Add(m.EventsOwned)
	c.TimerRecycles.Add(m.TimerRecycles)
	c.PacketRecycles.Add(m.PacketRecycles)
	c.HeapHighWater.Observe(int64(m.HeapHighWater))
	c.NearHighWater.Observe(int64(m.NearHighWater))
}

// StartCell begins a per-cell phase clock. On a nil collector it
// returns a clock whose methods all no-op without reading the wall
// clock, so uninstrumented runs stay deterministic and free.
func (c *Collector) StartCell() PhaseClock {
	if c == nil {
		return PhaseClock{}
	}
	return PhaseClock{c: c, last: time.Now()}
}

// PhaseClock tracks one cell's phase breakdown. The zero value is the
// disabled clock: every method no-ops. A PhaseClock is used by one
// goroutine (the cell's worker).
//
//qoe:nilsafe
type PhaseClock struct {
	c    *Collector
	last time.Time
	d    [PhaseCount]time.Duration
	use  ContentUse
}

// Enabled reports whether the clock is recording.
func (p *PhaseClock) Enabled() bool { return p.c != nil }

// Mark closes the current phase: time since the previous Mark (or
// StartCell) is attributed to ph.
func (p *PhaseClock) Mark(ph Phase) {
	if p.c == nil {
		return
	}
	now := time.Now()
	p.d[ph] += now.Sub(p.last)
	p.last = now
}

// Content notes what the cell asked of the reference-media cache, for
// its trace event.
func (p *PhaseClock) Content(u ContentUse) {
	if p.c == nil {
		return
	}
	p.use = u
}

// Done closes the cell: remaining time is attributed to PhaseScore,
// the phase totals and sim counters are flushed into the collector,
// and a trace event is emitted when tracing is enabled. cell is the
// cell's label (CellSpec.String()).
func (p *PhaseClock) Done(cell string, m SimMetrics) {
	if p.c == nil {
		return
	}
	p.Mark(PhaseScore)
	for ph := Phase(0); ph < PhaseCount; ph++ {
		p.c.PhaseNanos[ph].Add(uint64(p.d[ph]))
	}
	p.c.PhaseCells.Inc()
	p.c.FlushSim(m)
	p.c.traceCell(cell, p.d, m, p.use)
}

// Snapshot is a point-in-time copy of every collector metric,
// JSON-serializable (it backs Session.Metrics and the -json
// telemetry block).
type Snapshot struct {
	// UptimeSeconds is the time since the collector was created.
	UptimeSeconds float64 `json:"uptime_seconds"`

	CacheHits     uint64 `json:"cache_hits"`
	CacheMisses   uint64 `json:"cache_misses"`
	CellsCanceled uint64 `json:"cells_canceled"`
	CellsInFlight int64  `json:"cells_in_flight"`
	QueueDepth    int64  `json:"queue_depth"`
	Waiters       int64  `json:"waiters"`
	// WorkerBusySeconds is the cumulative wall time workers spent
	// executing cells (a utilization numerator).
	WorkerBusySeconds float64      `json:"worker_busy_seconds"`
	CellWall          HistSnapshot `json:"cell_wall_seconds"`

	// Persistent store tier counters and lookup latency.
	StoreHits   uint64       `json:"store_hits"`
	StoreMisses uint64       `json:"store_misses"`
	StoreWrites uint64       `json:"store_writes"`
	StoreLoad   HistSnapshot `json:"store_load_seconds"`

	Sim SimMetrics `json:"sim"`

	// PhaseSeconds maps phase label ("build", "sim", "score") to
	// cumulative seconds across all traced cells.
	PhaseSeconds map[string]float64 `json:"phase_seconds"`
	PhaseCells   uint64             `json:"phase_cells"`

	// Reference-media cache: lookups that hit, pieces synthesized and
	// evicted, and the bytes resident.
	ContentHits        uint64 `json:"content_hits"`
	ContentSynthesized uint64 `json:"content_synthesized"`
	ContentEvicted     uint64 `json:"content_evicted"`
	ContentBytes       int64  `json:"content_bytes"`

	// Replication: repetitions run per rep-loop cell, the number of
	// cells the CI stopping rule halted early, and the number the
	// horizon cut short.
	RepsPerCell       HistSnapshot `json:"reps_per_cell"`
	CellsStoppedEarly uint64       `json:"cells_stopped_early"`
	CellsHitHorizon   uint64       `json:"cells_hit_horizon"`

	SweepCells uint64 `json:"sweep_cells"`
}

// Snapshot copies the collector. Safe on nil (returns the zero
// Snapshot).
func (c *Collector) Snapshot() Snapshot {
	if c == nil {
		return Snapshot{}
	}
	s := Snapshot{
		UptimeSeconds:     time.Since(c.start).Seconds(),
		CacheHits:         c.CacheHits.Value(),
		CacheMisses:       c.CacheMisses.Value(),
		CellsCanceled:     c.CellsCanceled.Value(),
		CellsInFlight:     c.CellsInFlight.Value(),
		QueueDepth:        c.QueueDepth.Value(),
		Waiters:           c.Waiters.Value(),
		WorkerBusySeconds: float64(c.WorkerBusy.Value()) / 1e9,
		CellWall:          c.CellWall.Snapshot(),
		StoreHits:         c.StoreHits.Value(),
		StoreMisses:       c.StoreMisses.Value(),
		StoreWrites:       c.StoreWrites.Value(),
		StoreLoad:         c.StoreLoad.Snapshot(),
		Sim: SimMetrics{
			EventsPooled:   c.EventsPooled.Value(),
			EventsOwned:    c.EventsOwned.Value(),
			TimerRecycles:  c.TimerRecycles.Value(),
			PacketRecycles: c.PacketRecycles.Value(),
			HeapHighWater:  int(c.HeapHighWater.Value()),
			NearHighWater:  int(c.NearHighWater.Value()),
		},
		ContentHits:        c.ContentHits.Value(),
		ContentSynthesized: c.ContentSynthesized.Value(),
		ContentEvicted:     c.ContentEvicted.Value(),
		ContentBytes:       c.ContentBytes.Value(),
		PhaseSeconds:       make(map[string]float64, PhaseCount),
		PhaseCells:         c.PhaseCells.Value(),
		RepsPerCell:        c.RepsPerCell.Snapshot(),
		CellsStoppedEarly:  c.CellsStoppedEarly.Value(),
		CellsHitHorizon:    c.CellsHitHorizon.Value(),
		SweepCells:         c.SweepCells.Value(),
	}
	for ph := Phase(0); ph < PhaseCount; ph++ {
		s.PhaseSeconds[ph.String()] = float64(c.PhaseNanos[ph].Value()) / 1e9
	}
	return s
}
