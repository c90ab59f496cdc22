package bufferqoe

import (
	"context"

	"bufferqoe/internal/experiments"
	"bufferqoe/internal/qoe"
)

// Session owns one cell engine: a worker pool, a result cache, and
// the counters Stats reports. Independent callers — a service
// handling many users, a test wanting a cold cache — each create
// their own Session instead of sharing package-global state; the
// package-level Run/RunAll/Measure*/Sweep functions operate on a
// process-wide default session, preserving the original behavior.
// Results are a pure function of specs and options, never of which
// session computed them: the same call gives bit-identical answers on
// any session at any parallelism.
type Session struct {
	inner *experiments.Session
	// plans keeps the compiled plans of the sweeps asked lately, so a
	// repeated question is a lookup per cell, not a compile.
	plans planMemo
}

// NewSession creates a session with its own engine, cache, and
// GOMAXPROCS-sized worker pool.
func NewSession() *Session {
	return &Session{inner: experiments.NewSession(0)}
}

// defaultSession backs the package-level functions; it wraps the
// experiments package's Default session so probes and experiment runs
// through either API share one cache.
var defaultSession = &Session{inner: experiments.Default}

// SetParallelism resizes the session's cell worker pool; n <= 0 means
// GOMAXPROCS. Parallelism never changes results.
func (s *Session) SetParallelism(n int) { s.inner.SetParallelism(n) }

// Parallelism returns the session's worker-pool size.
func (s *Session) Parallelism() int { return s.inner.Parallelism() }

// Stats snapshots the session's engine counters.
func (s *Session) Stats() EngineStats {
	st := s.inner.EngineStats()
	return EngineStats{
		Workers: st.Workers, CachedCells: st.Entries,
		Hits: st.Hits, Misses: st.Misses, Canceled: st.Canceled,
		InFlight: st.InFlight, QueueDepth: st.QueueDepth, Waiters: st.Waiters,
		StoreHits: st.StoreHits, StoreMisses: st.StoreMisses, StoreWrites: st.StoreWrites,
	}
}

// OpenStore attaches a persistent content-addressed result store
// rooted at dir to the session. Cells already computed by any prior
// run sharing the directory — other processes, other machines, other
// CI jobs — are answered from disk instead of simulated, and every
// fresh compute is persisted (off the hot path) for future runs.
// Stored results are bit-identical to fresh computes by construction,
// and entries are keyed by the engine's semantic version, so a store
// can never serve values the current code would not produce; see
// DESIGN.md "Persistence & server mode". Open the store before
// submitting work; a session holds at most one store at a time.
func (s *Session) OpenStore(dir string) error { return s.inner.OpenStore(dir) }

// CloseStore flushes and detaches the session's persistent store (a
// no-op when none is open). The session keeps working afterwards;
// cells just stop being answered from or persisted to disk. Call it
// before process exit so queued writes reach the directory.
func (s *Session) CloseStore() error { return s.inner.CloseStore() }

// ResetCache drops the session's memoized cell results, zeroes its
// counters, and detaches (closing) any open store, so the next run is
// genuinely cold — nothing is answered from memory or disk. Reattach
// with OpenStore if persistence is wanted again.
func (s *Session) ResetCache() { s.inner.ResetCache() }

// Run executes one experiment by ID on the session.
func (s *Session) Run(id string, o Options) (*Result, error) {
	return s.RunCtx(context.Background(), id, o)
}

// RunCtx is Run bounded by ctx: a canceled context abandons the
// experiment's queued cells and returns ErrCanceled.
func (s *Session) RunCtx(ctx context.Context, id string, o Options) (*Result, error) {
	res, err := s.inner.Run(ctx, id, o.internal())
	if err != nil {
		return nil, err
	}
	return &Result{ID: res.ID, Text: res.Render(), inner: res}, nil
}

// RunAll executes a batch of experiments on the session; see the
// package-level RunAll for the batching semantics.
func (s *Session) RunAll(ids []string, o Options) []Outcome {
	return s.RunAllCtx(context.Background(), ids, o)
}

// RunAllCtx is RunAll bounded by ctx: canceled experiments record
// ErrCanceled outcomes instead of results.
func (s *Session) RunAllCtx(ctx context.Context, ids []string, o Options) []Outcome {
	inner := s.inner.RunAll(ctx, ids, o.internal())
	out := make([]Outcome, len(inner))
	for i, oc := range inner {
		out[i] = Outcome{ID: oc.ID, Err: oc.Err, Elapsed: oc.Elapsed}
		if oc.Result != nil {
			out[i].Result = &Result{ID: oc.Result.ID, Text: oc.Result.Render(), inner: oc.Result}
		}
	}
	return out
}

// The Measure* methods compile a one-cell Scenario/Probe pair through
// the same spec path as Sweep, so an unknown scenario, direction, or
// profile returns an error here instead of crashing a worker
// goroutine, and a probe of a configuration any sweep or experiment
// on this session has visited is a cache hit.

// measure compiles one legacy probe and runs it as a one-spec batch.
// On the backbone the
// caller's direction is ignored (the paper's backbone is
// downstream-only and the pre-Session probes accepted any direction
// there), matching the historical Measure* behavior.
func (s *Session) measure(n Network, scenario string, dir Direction, buffer int, p Probe, o Options) (experiments.ProbeValue, error) {
	sc := Scenario{Network: n, Workload: scenario, Direction: dir}
	if n == Backbone {
		sc.Direction = ""
	}
	spec, err := sc.spec(p, buffer)
	if err != nil {
		return experiments.ProbeValue{}, err
	}
	vals, err := s.inner.ProbeBatch(context.Background(), []experiments.ProbeSpec{spec}, o.internal())
	if err != nil {
		return experiments.ProbeValue{}, err
	}
	return vals[0], nil
}

// MeasureVoIP runs VoIP calls under the named workload and returns
// median scores; see the package-level MeasureVoIP.
func (s *Session) MeasureVoIP(n Network, scenario string, dir Direction, buffer int, o Options) (VoIPResult, error) {
	v, err := s.measure(n, scenario, dir, buffer, Probe{Media: VoIP}, o)
	if err != nil {
		return VoIPResult{}, err
	}
	out := VoIPResult{
		ListenMOS:    v.ListenMOS,
		ListenRating: string(qoe.VoIPSatisfaction(v.ListenMOS)),
	}
	if n != Backbone {
		out.TalkMOS = v.TalkMOS
		out.TalkRating = string(qoe.VoIPSatisfaction(v.TalkMOS))
	}
	return out, nil
}

// MeasureWeb fetches the paper's static page under the named workload
// and returns the median page load time with its G.1030 score.
func (s *Session) MeasureWeb(n Network, scenario string, dir Direction, buffer int, o Options) (WebResult, error) {
	v, err := s.measure(n, scenario, dir, buffer, Probe{Media: Web}, o)
	if err != nil {
		return WebResult{}, err
	}
	model := qoe.AccessWebModel()
	if n == Backbone {
		model = qoe.BackboneWebModel()
	}
	mos := model.MOS(v.PLT)
	return WebResult{MedianPLT: v.PLT, MOS: mos, Rating: string(qoe.Rate(mos))}, nil
}

// MeasureVideo streams the paper's clip C at "SD" (4 Mbit/s) or "HD"
// (8 Mbit/s) and returns the median SSIM with its MOS mapping.
func (s *Session) MeasureVideo(n Network, scenario, profile string, buffer int, o Options) (VideoResult, error) {
	v, err := s.measure(n, scenario, "", buffer, Probe{Media: Video, Profile: profile}, o)
	if err != nil {
		return VideoResult{}, err
	}
	mos := qoe.SSIMToMOS(v.SSIM)
	return VideoResult{SSIM: v.SSIM, MOS: mos, Rating: string(qoe.Rate(mos))}, nil
}
