package engine

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"bufferqoe/internal/telemetry"
)

// Version stamps the simulation semantics. It is part of every
// persistent-store content address: two processes may share a stored
// cell result only if they agree on Version, because a cell's value
// is a pure function of (canonical spec, Version).
//
// Bump rule: increment whenever any cell's computed value can change —
// simulator behavior, seed derivation, QoE models, default folding in
// Canonical(), or the meaning of any CellSpec field. The golden
// bit-identity test is the tripwire: if it needs regenerating, Version
// must be bumped in the same change, otherwise warm stores would keep
// serving values the new code can no longer reproduce. Cache-neutral
// changes (scheduling, telemetry, new axes that canonicalize away)
// must NOT bump it, or stores would be orphaned for nothing.
const Version = "1"

// CellStore is a persistent second cache tier consulted on in-memory
// misses and written through after fresh computes. Implementations
// (see internal/store) must be safe for concurrent use, and Get must
// return values bit-identical to the compute it replaces. Put must
// not block: persistence is off the hot path by contract.
type CellStore interface {
	// Get returns the stored value for an engine cache key, if any.
	Get(key string) (any, bool)
	// Put schedules the value for persistence and reports whether it
	// was accepted (false: unsupported type, duplicate, or shed load).
	Put(key string, v any) bool
}

// ErrCanceled reports that a cell was abandoned because its context
// was canceled before the cell executed. Cells already executing are
// never interrupted — simulation state is not checkpointable — so a
// canceled batch drains its in-flight cells (their results land in
// the cache) and abandons only the queued remainder.
var ErrCanceled = errors.New("engine: cell canceled")

// ErrCellPanicked reports that a cell's computation panicked. A batch
// hands the panicking task, and every task coalesced onto it, an error
// that wraps it with the panic value and stack; the engine stays
// usable, and a retry recomputes the cell.
var ErrCellPanicked = errors.New("engine: cell panicked")

// CellFunc computes one cell. It must be a pure function of the spec
// and the derived seed: no reads of clocks, global RNGs, or state
// mutated by other cells. The engine enforces the payoff — a pure
// cell's value can be computed once, on any worker, in any order, and
// be shared by every experiment that names the same spec.
//
// scr is the worker's reusable scratch (nil when the engine has no
// scratch factory): per-run working memory — monitors, testbed
// carcasses, metric accumulators — recycled between cells so
// steady-state sweeps stop paying a fresh-allocation tax per cell. A
// cell may keep state in the scratch only if reuse cannot change
// results: mutable state must be behind Reset, and anything a scratch
// shares with other workers must be immutable content keyed by
// everything that determines it.
type CellFunc func(spec CellSpec, seed uint64, scr Scratch) any

// Compute calls f, so a CellFunc is a Computer.
func (f CellFunc) Compute(spec CellSpec, seed uint64, scr Scratch) any { return f(spec, seed, scr) }

// Computer computes a cell, under CellFunc's contract. The engine
// calls Compute only when the cell misses every cache tier, so a
// Computer can defer building what only a simulation needs: a batch
// that keeps its cells' inputs in one slice submits a pointer into it
// per task, which costs a cache hit no allocation.
type Computer interface {
	Compute(spec CellSpec, seed uint64, scr Scratch) any
}

// Scratch is reusable per-cell working memory. Reset is called by the
// engine before every cell that borrows the scratch.
type Scratch interface {
	Reset()
}

// Task is one cell of a batch: its canonical spec, the cache key the
// spec renders, and what computes it. NewTask canonicalizes and keys
// the spec once, so a batch built once and submitted many times — a
// warm re-query of a prepared sweep — renders no key per submit.
type Task struct {
	spec CellSpec
	key  string
	fn   Computer
}

// NewTask pairs a spec with what computes it, for batch submission.
func NewTask(spec CellSpec, fn Computer) Task {
	spec = spec.Canonical()
	return Task{spec: spec, key: spec.Key(), fn: fn}
}

// Spec returns the task's canonical spec.
func (t Task) Spec() CellSpec { return t.spec }

// Key returns the cache key of the task's spec.
func (t Task) Key() string { return t.key }

// Fn returns what computes the task's cell.
func (t Task) Fn() Computer { return t.fn }

// WithFn returns the same cell computed by fn: the spec and key are
// kept, so a batch can be bound to a run's observer without keying
// its cells again.
func (t Task) WithFn(fn Computer) Task {
	t.fn = fn
	return t
}

// Stats is a snapshot of the engine's counters.
type Stats struct {
	// Workers is the current worker-pool size.
	Workers int
	// Entries is the number of cached cell results (including ones
	// still being computed).
	Entries int
	// Hits counts Do calls answered from the cache (or coalesced onto
	// an in-flight computation of the same cell).
	Hits uint64
	// Misses counts Do calls that actually computed a cell.
	Misses uint64
	// Canceled counts cells abandoned before execution because their
	// context was canceled (queued cells of a canceled batch, and
	// waiters that gave up on an in-flight computation).
	Canceled uint64
	// InFlight is the number of cells executing right now.
	InFlight int64
	// QueueDepth is the number of callers holding a cache entry but
	// still waiting for a worker slot.
	QueueDepth int64
	// Waiters is the number of callers blocked on another caller's
	// in-flight computation of the same cell.
	Waiters int64
	// StoreHits counts cells answered from the persistent store tier
	// (no simulation ran); StoreMisses counts store lookups that found
	// nothing and fell through to a compute; StoreWrites counts fresh
	// results accepted by the store for persistence. All zero when no
	// store is attached.
	StoreHits   uint64
	StoreMisses uint64
	StoreWrites uint64
}

// entry is one cache slot; done is closed once val (or panicked, or
// canceled) is set.
type entry struct {
	done     chan struct{}
	val      any
	panicked any
	// canceled marks an entry whose owning caller was canceled before
	// computing; the entry is already deleted from the cache and
	// coalesced waiters must retry (the cell was never computed).
	canceled bool
}

// Engine runs cells on a bounded worker pool and memoizes their
// results by canonical spec.
type Engine struct {
	mu       sync.Mutex
	sem      chan struct{} // capacity == worker count
	cache    map[string]*entry
	hits     atomic.Uint64
	misses   atomic.Uint64
	canceled atomic.Uint64
	workers  int

	// store, when non-nil, is the persistent second cache tier: an
	// in-memory miss consults it before acquiring a worker slot, and a
	// fresh compute writes through to it. Guarded by mu (read once per
	// do miss path); nil is the detached state.
	store       CellStore
	storeHits   atomic.Uint64
	storeMisses atomic.Uint64
	storeWrites atomic.Uint64

	// Live gauges: maintained on every do path (including panics
	// and canceled-batch abandonment) so Stats stays consistent — each
	// increment has a matching decrement on every exit.
	inFlight   atomic.Int64
	queueDepth atomic.Int64
	waiters    atomic.Int64

	// collector, when non-nil, mirrors every counter and gauge into a
	// telemetry.Collector and enables the per-cell extras that cost
	// something (wall-clock reads, pprof labels). Loaded once per do
	// call; nil is the zero-overhead disabled state.
	collector atomic.Pointer[telemetry.Collector]

	scratchNew  func() Scratch
	scratchPool []Scratch
}

// SetCollector attaches a telemetry collector (nil detaches). With a
// collector attached, every cache hit/miss/cancel and gauge movement
// is mirrored into it, fresh computations record wall time and worker
// busy-nanoseconds, and worker goroutines carry runtime/pprof labels
// (qoe_testbed, qoe_scenario, qoe_media, qoe_buffer) so CPU profiles
// attribute samples to grid coordinates. Attach before submitting
// work: counters mirror from attachment onward, so a collector
// attached to an idle engine reconciles exactly with Stats deltas.
func (e *Engine) SetCollector(c *telemetry.Collector) { e.collector.Store(c) }

// Collector returns the attached collector, or nil.
func (e *Engine) Collector() *telemetry.Collector { return e.collector.Load() }

// SetStore attaches a persistent result store as the second cache
// tier (nil detaches). Attaching a store never changes results — a
// store hit is by contract bit-identical to the compute it skips — it
// only changes how many cells are simulated. The store is consulted
// on the in-memory miss path exclusively, so the warm-cache fast path
// and the collector-off zero-overhead guarantees are untouched.
func (e *Engine) SetStore(st CellStore) {
	e.mu.Lock()
	e.store = st
	e.mu.Unlock()
}

// Store returns the attached persistent store, or nil.
func (e *Engine) Store() CellStore {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.store
}

// SetScratch installs a factory for per-worker scratch memory. Each
// cell computation borrows a scratch from a free-list (creating one
// via the factory when none is idle), gets it Reset, and returns it
// when done — so at most one scratch exists per concurrently running
// cell, regardless of how many cells a sweep submits.
func (e *Engine) SetScratch(factory func() Scratch) {
	e.mu.Lock()
	e.scratchNew = factory
	e.scratchPool = nil
	e.mu.Unlock()
}

func (e *Engine) takeScratch() Scratch {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.scratchNew == nil {
		return nil
	}
	if n := len(e.scratchPool); n > 0 {
		s := e.scratchPool[n-1]
		e.scratchPool = e.scratchPool[:n-1]
		s.Reset()
		return s
	}
	s := e.scratchNew()
	s.Reset()
	return s
}

func (e *Engine) putScratch(s Scratch) {
	if s == nil {
		return
	}
	e.mu.Lock()
	e.scratchPool = append(e.scratchPool, s)
	e.mu.Unlock()
}

// New creates an engine with the given worker-pool size; n <= 0 uses
// GOMAXPROCS.
func New(n int) *Engine {
	e := &Engine{cache: map[string]*entry{}}
	e.SetWorkers(n)
	return e
}

// SetWorkers resizes the worker pool; n <= 0 uses GOMAXPROCS. Cells
// already running are unaffected (they release into the pool they
// acquired from); new submissions see the new bound.
func (e *Engine) SetWorkers(n int) {
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	e.mu.Lock()
	e.workers = n
	e.sem = make(chan struct{}, n)
	e.mu.Unlock()
}

// Workers returns the current worker-pool size.
func (e *Engine) Workers() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.workers
}

// Do returns the cell's value, computing it at most once per process.
// Concurrent calls for the same canonical spec coalesce: one caller
// computes (bounded by the worker pool), the rest wait for its value.
// A panicking cell never poisons the engine: the worker slot is
// released, the cache entry is dropped (a retry recomputes), and the
// panic propagates to the computing caller and any coalesced waiters.
func (e *Engine) Do(spec CellSpec, fn CellFunc) any {
	t := NewTask(spec, fn)
	// context.Background is never canceled, so do cannot fail here. One
	// collector load per call: the nil check is the entire cost of
	// disabled telemetry on this path.
	v, _ := e.do(context.Background(), t, e.collector.Load())
	return v
}

// do computes or fetches a task's cell. A call whose ctx is canceled
// before the cell starts executing returns ErrCanceled and leaves the
// engine exactly as if the call never happened (no cache entry, no
// leaked worker slot — a later call recomputes). Once a cell is
// executing it runs to completion and is cached; cancellation only
// prevents execution from starting.
func (e *Engine) do(ctx context.Context, t Task, col *telemetry.Collector) (any, error) {
	k := t.key
	for {
		if ctx.Err() != nil {
			e.noteCanceled(col)
			return nil, ErrCanceled
		}
		e.mu.Lock()
		if ent, ok := e.cache[k]; ok {
			e.mu.Unlock()
			select {
			case <-ent.done:
				// Completed entry (the warm-hit fast path): no waiting, so
				// the waiters gauge is never churned.
			default:
				e.waiters.Add(1)
				if col != nil {
					col.Waiters.Add(1)
				}
				select {
				case <-ent.done:
					e.waiters.Add(-1)
					if col != nil {
						col.Waiters.Add(-1)
					}
				case <-ctx.Done():
					e.waiters.Add(-1)
					if col != nil {
						col.Waiters.Add(-1)
					}
					e.noteCanceled(col)
					return nil, ErrCanceled
				}
			}
			if ent.canceled {
				// The computing caller was canceled before executing and
				// already dropped the entry; race for a fresh one.
				continue
			}
			e.hits.Add(1)
			if col != nil {
				col.CacheHits.Inc()
			}
			if ent.panicked != nil {
				panic(ent.panicked)
			}
			return ent.val, nil
		}
		ent := &entry{done: make(chan struct{})}
		e.cache[k] = ent
		sem := e.sem
		st := e.store
		e.mu.Unlock()

		// Second tier: before competing for a worker slot, ask the
		// persistent store. A hit completes the entry without simulating
		// — it is neither a Hit (in-memory) nor a Miss (no compute ran),
		// so Stats.Misses == 0 on a fully warm store.
		if st != nil {
			if v, ok := e.storeGet(st, k, col); ok {
				ent.val = v
				close(ent.done)
				return v, nil
			}
		}

		e.queueDepth.Add(1)
		if col != nil {
			col.QueueDepth.Add(1)
		}
		select {
		case sem <- struct{}{}:
			e.queueDepth.Add(-1)
			if col != nil {
				col.QueueDepth.Add(-1)
			}
		case <-ctx.Done():
			e.queueDepth.Add(-1)
			if col != nil {
				col.QueueDepth.Add(-1)
			}
			e.abandon(k, ent, col)
			return nil, ErrCanceled
		}
		// The semaphore send and the cancellation can race; re-check so
		// a canceled batch never starts new work it won a slot for.
		if ctx.Err() != nil {
			<-sem
			e.abandon(k, ent, col)
			return nil, ErrCanceled
		}

		e.misses.Add(1)
		if col != nil {
			col.CacheMisses.Inc()
		}
		e.compute(ctx, t, ent, sem, col)
		// Write-through: persist the fresh result. Put only enqueues
		// (the store writes on its own goroutine), so the compute path
		// never waits on disk; a panicking cell never reaches here.
		if st != nil && st.Put(k, ent.val) {
			e.storeWrites.Add(1)
			if col != nil {
				col.StoreWrites.Inc()
			}
		}
		return ent.val, nil
	}
}

// storeGet consults the persistent tier, maintaining the store
// counters and — with a collector attached — the store-load latency
// histogram.
func (e *Engine) storeGet(st CellStore, k string, col *telemetry.Collector) (any, bool) {
	var start time.Time
	if col != nil {
		//lint:allow qoelint/determinism observational latency telemetry only; never flows into a cell result or seed
		start = time.Now()
	}
	v, ok := st.Get(k)
	if col != nil {
		//lint:allow qoelint/determinism observational latency telemetry only; never flows into a cell result or seed
		col.StoreLoad.Observe(time.Since(start).Seconds())
	}
	if ok {
		e.storeHits.Add(1)
		if col != nil {
			col.StoreHits.Inc()
		}
	} else {
		e.storeMisses.Add(1)
		if col != nil {
			col.StoreMisses.Inc()
		}
	}
	return v, ok
}

// compute executes one cell on an acquired worker slot, maintaining
// the in-flight gauge and — with a collector attached — the wall-time
// histogram, worker busy-time, and pprof labels, on completion and
// panic alike.
func (e *Engine) compute(ctx context.Context, t Task, ent *entry, sem chan struct{}, col *telemetry.Collector) {
	spec := t.spec
	e.inFlight.Add(1)
	var start time.Time
	if col != nil {
		col.CellsInFlight.Add(1)
		//lint:allow qoelint/determinism observational wall-time telemetry only; never flows into a cell result or seed
		start = time.Now()
	}
	completed := false
	defer func() {
		e.inFlight.Add(-1)
		if col != nil {
			//lint:allow qoelint/determinism observational wall-time telemetry only; never flows into a cell result or seed
			wall := time.Since(start)
			col.CellsInFlight.Add(-1)
			col.WorkerBusy.Add(uint64(wall))
			col.CellWall.Observe(wall.Seconds())
		}
		<-sem
		if !completed {
			ent.panicked = recover()
			e.mu.Lock()
			delete(e.cache, t.key)
			e.mu.Unlock()
			close(ent.done)
			panic(ent.panicked)
		}
		close(ent.done)
	}()
	scr := e.takeScratch()
	// Deferred so a panicking cell still returns the scratch (and
	// its expensive content caches) to the pool; the next borrower
	// Resets it before use, so partially mutated state cannot leak.
	defer e.putScratch(scr)
	if col != nil {
		// pprof labels cost a context and a label-set allocation per
		// cell; worth it only when someone is observing.
		pprof.Do(ctx, pprof.Labels(
			"qoe_testbed", spec.Testbed,
			"qoe_scenario", spec.Scenario,
			"qoe_media", spec.Media,
			"qoe_buffer", strconv.Itoa(spec.Buffer),
		), func(context.Context) {
			ent.val = t.fn.Compute(spec, DeriveSeed(spec), scr)
		})
	} else {
		ent.val = t.fn.Compute(spec, DeriveSeed(spec), scr)
	}
	completed = true
}

// noteCanceled bumps the canceled counter and its collector mirror.
func (e *Engine) noteCanceled(col *telemetry.Collector) {
	e.canceled.Add(1)
	if col != nil {
		col.CellsCanceled.Inc()
	}
}

// abandon retracts a never-computed cache entry after a cancellation:
// the slot is removed so future callers recompute, and coalesced
// waiters are woken to retry.
func (e *Engine) abandon(k string, ent *entry, col *telemetry.Collector) {
	e.mu.Lock()
	delete(e.cache, k)
	e.mu.Unlock()
	ent.canceled = true
	close(ent.done)
	e.noteCanceled(col)
}

// RunBatch fans a batch of cells out across the worker pool and
// returns their values in submission order. Duplicate specs within a
// batch (or against other in-flight batches) are computed once. It
// returns a nil slice and the first task's error, in submission
// order, if any task failed: ErrCanceled if ctx was canceled before
// every task executed (in-flight tasks drain into the cache, queued
// ones are abandoned), or an error wrapping ErrCellPanicked.
func (e *Engine) RunBatch(ctx context.Context, tasks []Task) ([]any, error) {
	out := make([]any, len(tasks))
	errs := make([]error, len(tasks))
	e.SubmitBatch(ctx, tasks, func(i int, v any, err error) {
		out[i], errs[i] = v, err
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// SubmitBatch fans a batch of cells out across the worker pool and
// invokes each as every task completes, in completion order — the
// streaming primitive batch APIs and progress reporting build on.
// each(i, v, err) runs on the completing task's goroutine, possibly
// concurrently with other completions; err is ErrCanceled for tasks
// abandoned because ctx was canceled before they executed, and wraps
// ErrCellPanicked for a task whose cell panicked: nothing on a task's
// goroutine could recover that panic, so it becomes the task's error
// instead of ending the process. SubmitBatch returns once every
// callback has run.
//
// A task whose cell is already cached is answered on the submitting
// goroutine: a warm re-query costs a map lookup per cell, not a
// goroutine per cell. Only tasks that must compute, wait or report a
// cancellation get a goroutine. Those goroutines enter the engine one
// after the other, so cells queue for worker slots in submission order
// (the slot channel is FIFO) rather than in whatever order the
// scheduler runs a burst of new goroutines: a preference, not a
// contract — it makes a small grid of unequal cells pack the same way
// every time (the 6-cell backbone grid: 2.7-3.0 s a round, against
// 2.6-4.0 s unordered).
func (e *Engine) SubmitBatch(ctx context.Context, tasks []Task, each func(i int, v any, err error)) {
	col := e.collector.Load()
	var wg sync.WaitGroup
	var turn chan struct{} // closed once the previous goroutine has entered the engine
	for i, t := range tasks {
		if v, ok := e.cached(ctx, t.key, col); ok {
			each(i, v, nil)
			continue
		}
		wg.Add(1)
		next := make(chan struct{})
		// Arguments, not captures: a captured task would be heap-allocated
		// for every task, including the ones answered above.
		go func(i int, t Task, turn <-chan struct{}, next chan<- struct{}) {
			defer wg.Done()
			if turn != nil {
				<-turn
			}
			close(next)
			v, err := e.try(ctx, t, col)
			each(i, v, err)
		}(i, t, turn, next)
		turn = next
	}
	wg.Wait()
}

// try is do on a task's own goroutine: a panic of the cell, or the
// re-panic a coalesced waiter sees, is returned wrapping
// ErrCellPanicked, the panic value on the first line of its text.
func (e *Engine) try(ctx context.Context, t Task, col *telemetry.Collector) (v any, err error) {
	defer func() {
		if p := recover(); p != nil {
			v, err = nil, fmt.Errorf("%w: %v\n\n%s", ErrCellPanicked, p, debug.Stack())
		}
	}()
	return e.do(ctx, t, col)
}

// cached answers a cell whose computation has already completed,
// counting it exactly as do's warm-hit path would. Everything else —
// no entry, an entry still computing, one that panicked or was
// abandoned, a canceled ctx — is left to do.
func (e *Engine) cached(ctx context.Context, k string, col *telemetry.Collector) (any, bool) {
	if ctx.Err() != nil {
		return nil, false
	}
	e.mu.Lock()
	ent := e.cache[k]
	e.mu.Unlock()
	if ent == nil {
		return nil, false
	}
	select {
	case <-ent.done:
	default:
		return nil, false
	}
	if ent.canceled || ent.panicked != nil {
		return nil, false
	}
	e.hits.Add(1)
	if col != nil {
		col.CacheHits.Inc()
	}
	return ent.val, true
}

// Stats snapshots the counters.
func (e *Engine) Stats() Stats {
	e.mu.Lock()
	entries, workers := len(e.cache), e.workers
	e.mu.Unlock()
	return Stats{
		Workers:     workers,
		Entries:     entries,
		Hits:        e.hits.Load(),
		Misses:      e.misses.Load(),
		Canceled:    e.canceled.Load(),
		InFlight:    e.inFlight.Load(),
		QueueDepth:  e.queueDepth.Load(),
		Waiters:     e.waiters.Load(),
		StoreHits:   e.storeHits.Load(),
		StoreMisses: e.storeMisses.Load(),
		StoreWrites: e.storeWrites.Load(),
	}
}

// ResetCache drops all cached results, detaches the persistent store
// tier, and zeroes the hit/miss counters. Intended for tests and
// long-lived processes that change the simulation code underneath the
// cache (which nothing in-process can). Detaching the store is part
// of the contract: a reset promises genuine cold runs, and a store
// left attached would silently answer "cold" cells from disk.
func (e *Engine) ResetCache() {
	e.mu.Lock()
	e.cache = map[string]*entry{}
	e.store = nil
	e.mu.Unlock()
	e.hits.Store(0)
	e.misses.Store(0)
	e.canceled.Store(0)
	e.storeHits.Store(0)
	e.storeMisses.Store(0)
	e.storeWrites.Store(0)
}
