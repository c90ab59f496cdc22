package experiments

import (
	"context"
	"fmt"

	"bufferqoe/internal/engine"
	"bufferqoe/internal/store"
	"bufferqoe/internal/telemetry"
)

// ErrCanceled reports that a run was abandoned because its context was
// canceled. Cells already simulating when the cancellation lands drain
// to completion and stay cached (the simulator has no checkpoints to
// resume from); only queued cells are abandoned, so a canceled run
// followed by the same run on the same session re-simulates exactly
// the abandoned cells.
var ErrCanceled = engine.ErrCanceled

// ErrCellPanicked reports that a run failed because one of its cells
// panicked; the error wrapping it names the panic value. The session
// stays usable, and the panicking cell is not cached.
var ErrCellPanicked = engine.ErrCellPanicked

// Session owns one cell-execution engine: a worker pool, a result
// cache, and the hit/miss counters. Everything the package can run —
// experiment grids, probes, sweeps — runs *on* a session, so
// independent callers (a service handling many users, a test that
// wants a cold cache) get isolated state instead of sharing mutable
// package globals. The package-level Run/RunAll functions operate
// on Default, preserving the original single-engine behavior.
type Session struct {
	eng *engine.Engine
	// collector, when non-nil, is merged into every run's Options (see
	// opts) so cells report per-cell telemetry without each caller
	// threading a collector through. Set via SetCollector.
	collector *telemetry.Collector
	// store is the session's handle on the persistent result store
	// attached to the engine, kept so CloseStore/ResetCache can flush
	// and release it.
	store *store.Store
	// content is the reference media every worker's scratch shares.
	content *contentCache
}

// NewSession creates a session with its own engine; workers <= 0 uses
// GOMAXPROCS. Each worker gets a reusable CellScratch (monitors,
// carcasses, rep arenas) recycled between the cells it computes; all
// of them share the session's one reference-media cache, which starts
// cold and, like the scratches, outlives ResetCache.
func NewSession(workers int) *Session {
	eng := engine.New(workers)
	content := newContentCache()
	eng.SetScratch(func() engine.Scratch { return &CellScratch{content: content} })
	return &Session{eng: eng, content: content}
}

// Default is the process-wide session behind the package-level
// functions. Cells submitted through it are shared across every
// caller that uses the package-level API.
var Default = NewSession(0)

// SetParallelism resizes the session's cell worker pool; n <= 0 means
// GOMAXPROCS. Parallelism never changes results: each cell's seed is
// derived from its canonical spec, not from scheduling order.
func (s *Session) SetParallelism(n int) { s.eng.SetWorkers(n) }

// Parallelism returns the session's worker-pool size.
func (s *Session) Parallelism() int { return s.eng.Workers() }

// EngineStats snapshots the session's cell cache/pool counters.
func (s *Session) EngineStats() engine.Stats { return s.eng.Stats() }

// SetCollector attaches a telemetry collector to the session (nil
// detaches): the cell engine mirrors its cache counters, gauges, and
// per-cell wall time into it, and every run whose Options leave
// Collector nil reports phase telemetry to it. Attach before
// submitting work.
func (s *Session) SetCollector(c *telemetry.Collector) {
	s.collector = c
	s.eng.SetCollector(c)
}

// Collector returns the session's attached collector, or nil.
func (s *Session) Collector() *telemetry.Collector { return s.collector }

// opts normalizes run options and fills the session's collector into
// runs that don't bring their own. Every run entry point routes
// through it, so a collector attached to the session observes probes,
// experiments, and sweeps alike.
func (s *Session) opts(o Options) Options {
	o = o.withDefaults()
	o.Collector = s.observer(o.Collector)
	return o
}

// observer is the collector a run reports to: its own, or the
// session's when it brings none.
func (s *Session) observer(col *telemetry.Collector) *telemetry.Collector {
	if col == nil {
		return s.collector
	}
	return col
}

// OpenStore attaches a persistent content-addressed result store at
// dir as the engine's second cache tier: in-memory misses are
// answered from disk when a prior run (any process, any machine)
// already computed the cell under the same engine.Version, and fresh
// computes are written through off the hot path. Open the store
// before submitting work; a session holds at most one store at a time.
func (s *Session) OpenStore(dir string) error {
	if s.store != nil {
		return fmt.Errorf("experiments: session already has a store open at %s", s.store.Dir())
	}
	st, err := store.Open(dir, engine.Version, cellCodec{})
	if err != nil {
		return err
	}
	s.store = st
	s.eng.SetStore(st)
	return nil
}

// CloseStore detaches the session's persistent store, flushes its
// queued writes to disk, and releases it. No-op without an open
// store. The session keeps working afterwards — cells just stop
// hitting and feeding the disk tier.
func (s *Session) CloseStore() error {
	st := s.store
	if st == nil {
		return nil
	}
	s.store = nil
	s.eng.SetStore(nil)
	return st.Close()
}

// StoreStats snapshots the open store's counters; ok is false when no
// store is open.
func (s *Session) StoreStats() (store.Stats, bool) {
	if s.store == nil {
		return store.Stats{}, false
	}
	return s.store.Stats(), true
}

// ResetCache drops the session's memoized cell results and detaches
// (closing) any open persistent store, so subsequent runs are genuine
// cold runs: nothing in memory, nothing answered from disk. Reattach
// with OpenStore if warm-store behavior is wanted again.
func (s *Session) ResetCache() {
	s.eng.ResetCache()
	if s.store != nil {
		s.store.Close()
		s.store = nil
	}
}

// runCells fans a batch of jobs out across the engine and hands each
// value back with its grid coordinates. It fills nothing and returns
// the batch's error if any cell failed: ErrCanceled once ctx is
// canceled, or a panicking cell's error.
func (s *Session) runCells(ctx context.Context, jobs []cellJob, fill func(row, col string, v any)) error {
	tasks := make([]engine.Task, len(jobs))
	for i, j := range jobs {
		tasks[i] = j.task
	}
	vals, err := s.eng.RunBatch(ctx, tasks)
	if err != nil {
		return err
	}
	for i, v := range vals {
		fill(jobs[i].row, jobs[i].col, v)
	}
	return nil
}

// SetParallelism resizes the Default session's worker pool.
func SetParallelism(n int) { Default.SetParallelism(n) }

// Parallelism returns the Default session's worker-pool size.
func Parallelism() int { return Default.Parallelism() }

// EngineStats snapshots the Default session's counters.
func EngineStats() engine.Stats { return Default.EngineStats() }

// ResetEngineCache drops the Default session's cached cell results
// (tests only).
func ResetEngineCache() { Default.ResetCache() }
