package bufferqoe

import (
	"context"
	"iter"
	"time"

	"bufferqoe/internal/experiments"
	"bufferqoe/internal/telemetry"
)

// SweepStream runs the sweep's cells across the session's worker pool
// and yields each completed SweepCell as it finishes: first, in grid
// order, the cells the session's cache already holds, then the rest in
// completion order, which varies run to run, while every cell's
// *value* is the deterministic value the batch Sweep reports for the
// same spec (cell seeds derive from canonical specs, never from
// scheduling). The returned iterator is single-use.
//
// Consumption contract:
//
//   - A compile/validation error, or a context cancellation, is
//     yielded as the iterator's final (zero SweepCell, error) pair;
//     iteration then stops. Cancellation errors satisfy
//     errors.Is(err, ErrCanceled).
//   - Canceling ctx abandons the queued cells promptly; cells already
//     simulating drain into the session cache (a later identical
//     sweep reuses them and re-simulates only what was abandoned).
//   - Breaking out of the loop early behaves like a cancellation:
//     remaining queued cells are abandoned, in-flight cells drain in
//     the background, and no goroutines are leaked.
//   - o.OnProgress, when set, is called once per completed cell
//     before it is yielded.
func (s *Session) SweepStream(ctx context.Context, sw Sweep, o Options) iter.Seq2[SweepCell, error] {
	return func(yield func(SweepCell, error) bool) {
		plan, err := s.plan(sw, o)
		if err != nil {
			yield(SweepCell{}, err)
			return
		}
		err = s.streamSweep(ctx, plan, o, func(_ int, c SweepCell) bool {
			return yield(c, nil)
		})
		if err != nil {
			yield(SweepCell{}, err)
		}
	}
}

// SweepStream streams a sweep on the default session; see
// Session.SweepStream.
func SweepStream(ctx context.Context, sw Sweep, o Options) iter.Seq2[SweepCell, error] {
	return defaultSession.SweepStream(ctx, sw, o)
}

// SweepCtx is Sweep bounded by ctx: the full grid, or ErrCanceled if
// the context was canceled before every cell executed. It consumes
// the same execution path as SweepStream, so grid and stream cannot
// disagree on a cell's value.
//
// A warm re-query — a sweep the session has been asked before under the
// same options — reuses the session's compiled plan: it renders no
// label, spec or key, looks its cells up in one pass over the cache,
// and scores and writes again only a cell whose value differs from the
// one its plan last scored (see keptCells).
func (s *Session) SweepCtx(ctx context.Context, sw Sweep, o Options) (*Grid, error) {
	plan, err := s.plan(sw, o)
	if err != nil {
		return nil, err
	}
	g := plan.grid()
	err = s.streamSweep(ctx, plan, o, func(i int, c SweepCell) bool {
		g.Cells[i] = c
		return true
	})
	if err != nil {
		return nil, err
	}
	return g, nil
}

// SweepGridCtx runs a ctx-bounded sweep on the default session.
func SweepGridCtx(ctx context.Context, sw Sweep, o Options) (*Grid, error) {
	return defaultSession.SweepCtx(ctx, sw, o)
}

// streamSweep executes a compiled sweep plan, invoking emit(i, cell)
// for every completed cell, on this goroutine: first, in plan order,
// every cell the session's cache already holds, then the others in
// completion order as the worker pool computes them. emit returning
// false abandons the remaining cells (like a cancellation) and returns
// nil; a context cancellation returns the first cell error
// (ErrCanceled). o.OnProgress is invoked before each emit. A call that
// delivers every cell keeps what it scored in the plan.
func (s *Session) streamSweep(ctx context.Context, plan *sweepPlan, o Options, emit func(i int, c SweepCell) bool) error {
	// The sweep-cell counter goes to the run's collector (or the
	// session's, via the same fallback the cells themselves use).
	col := o.Collector.raw()
	if col == nil {
		col = s.inner.Collector()
	}
	sc := plan.scoring()
	start := time.Now()
	completed, total := 0, plan.cells.Len()
	deliver := func(i int, v experiments.ProbeValue) bool {
		completed++
		if col != nil {
			col.SweepCells.Inc()
		}
		cell := sc.cell(i, v)
		if o.OnProgress != nil {
			o.OnProgress(Progress{Completed: completed, Total: total, Cell: cell}.timing(start))
		}
		return emit(i, cell)
	}
	misses, ok := s.inner.LookupPlan(ctx, plan.cells, deliver)
	if !ok {
		return nil
	}
	if len(misses) > 0 {
		if done, err := s.runMisses(ctx, plan, misses, o.Collector.raw(), deliver); !done {
			return err
		}
	}
	sc.keep()
	return nil
}

// runMisses hands the cells the cache did not hold to the worker pool
// and delivers each on this goroutine as it completes. It reports
// whether every cell was delivered: not when deliver returned false,
// nor on the first cell error (ErrCanceled), which it returns.
//
// Leak-freedom argument: the results channel is buffered to the
// number of cells, so completion callbacks never block, so the
// submitting goroutine always runs to SubmitPlan's return and exits —
// whether or not this loop is still listening. In-flight cells at
// abandonment keep simulating until they drain into the cache; the
// submitting goroutine outlives runMisses by exactly that drain time
// and then exits on its own.
func (s *Session) runMisses(ctx context.Context, plan *sweepPlan, misses []int, col *telemetry.Collector, deliver func(int, experiments.ProbeValue) bool) (bool, error) {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	type completion struct {
		i   int
		v   experiments.ProbeValue
		err error
	}
	ch := make(chan completion, len(misses))
	go func() {
		defer close(ch)
		s.inner.SubmitPlan(ctx, plan.cells, misses, col, func(i int, v experiments.ProbeValue, err error) {
			ch <- completion{i: i, v: v, err: err}
		})
	}()
	for c := range ch {
		if c.err != nil {
			// The first cancellation (or panicked cell) ends the stream;
			// the deferred cancel abandons the still-queued cells and the
			// buffered channel absorbs their completions.
			return false, c.err
		}
		if !deliver(c.i, c.v) {
			return false, nil
		}
	}
	return true, nil
}
