// Package bufferqoe is the public facade of the reproduction of
// "A QoE Perspective on Sizing Network Buffers" (Hohlfeld, Pujol,
// Ciucu, Feldmann, Barford — IMC 2014).
//
// It exposes five layers:
//
//   - experiment runners that regenerate every table and figure of the
//     paper's evaluation (Run / Experiments);
//   - scenario probes that answer one question at a time — "what is
//     the VoIP MOS on a DSL line with a 256-packet modem buffer under
//     upload congestion?" (MeasureVoIP, MeasureWeb, MeasureVideo);
//   - a composable scenario API (Scenario, Probe, Sweep) that goes
//     beyond the paper's fixed testbeds: custom link rates and delays,
//     typed workload mixes (Workload, with the Table 1 presets as
//     constructors of the same type), asymmetric uplink buffers, AQM
//     disciplines, congestion control, and last-hop jitter, swept as a
//     scenario x buffer x probe grid through the parallel cell engine;
//   - a streaming, context-aware execution surface (SweepStream,
//     SweepCtx, RunCtx, RunAllCtx, Options.OnProgress):
//     cells arrive as workers complete them, deadlines and
//     cancellations abandon queued work promptly (ErrCanceled) while
//     in-flight cells drain into the cache;
//   - buffer sizing: static calculators for the schemes the paper
//     compares (SizingSchemes) and an adaptive recommender
//     (Recommend) that searches the buffer axis for a QoE target
//     instead of sweeping it exhaustively.
//
// All state lives in a Session (engine, cache, worker pool); the
// package-level functions operate on a process-wide default session,
// and independent callers create their own with NewSession. Results
// are a pure function of the specs and options — never of session,
// scheduling, parallelism, or whether a batch, stream, or search
// computed them.
//
// Everything runs on a deterministic discrete-event simulation of the
// paper's two testbeds; see DESIGN.md for the substitutions made for
// the hardware and proprietary-data dependencies.
package bufferqoe

import (
	"fmt"
	"time"

	"bufferqoe/internal/experiments"
	"bufferqoe/internal/sizing"
	"bufferqoe/internal/testbed"
)

// Options scale an experiment or probe. The zero value uses the
// defaults documented on each field.
type Options struct {
	// Seed drives all randomness (default 42); equal seeds give
	// bit-identical runs.
	Seed uint64
	// Duration is the per-cell background measurement window
	// (default 30s).
	Duration time.Duration
	// Warmup runs background traffic before measuring (default 5s).
	Warmup time.Duration
	// Reps is the number of calls/streams/fetches per cell
	// (default 3).
	Reps int
	// ClipSeconds is the video clip length (default 4; paper: 16).
	ClipSeconds int
	// CDNFlows sizes the synthetic Section 3 population
	// (default 200000).
	CDNFlows int
	// CIHalfWidth, when > 0, enables adaptive replication: repetition
	// loops (VoIP calls, video streams, web fetches) stop early once
	// the 95% confidence interval of the cell's per-repetition QoE
	// score has half-width at most CIHalfWidth MOS points, instead of
	// always running Reps repetitions. Cheap, stable cells finish after
	// MinReps; noisy ones still run to Reps. The rule is part of cell
	// identity — adaptive and exhaustive runs cache separately, and an
	// adaptive cell's repetitions are the exhaustive cell's first n, so
	// its value is within the configured half-width of the full run's.
	// Zero (the default) keeps the exhaustive, bit-identical behavior.
	CIHalfWidth float64
	// MinReps is the minimum repetitions before the adaptive rule may
	// stop a cell (default 2 when CIHalfWidth is set; clamped to Reps).
	// Ignored when CIHalfWidth is 0.
	MinReps int
	// OnProgress, when set, is called after every completed cell of a
	// Sweep, SweepStream, or Recommend call, from the goroutine
	// consuming completions (never concurrently within one call). It
	// observes progress only — it cannot alter results, and it does
	// not participate in cell identity: runs with different hooks
	// share cache entries.
	//
	//qoe:notaxis a progress hook observes a run and never names a cell, so a sweep's plan is shared across hooks
	OnProgress func(Progress)
	// Collector, when non-nil, receives telemetry from this run:
	// per-cell build/sim/score phase timings, simulator event counts,
	// and trace events. Like OnProgress it is observational only — it
	// never enters cell identity, so runs with and without a collector
	// share cache entries and produce bit-identical results. Runs that
	// leave this nil report to the session's collector, if one was
	// attached with Session.SetCollector.
	//
	//qoe:notaxis a collector observes a run and never names a cell; a kept plan binds the run's collector at submit
	Collector *Collector
}

// Progress reports one completed cell of a streaming or batch run.
type Progress struct {
	// Completed and Total count cells finished so far and the cells
	// the call will compute in total (cache hits included).
	Completed, Total int
	// Cell is the cell that just completed.
	Cell SweepCell
	// Elapsed is the wall time since the run started consuming
	// completions.
	Elapsed time.Duration
	// Rate is the observed completion throughput in cells per second
	// (cache hits included; they complete near-instantly and inflate
	// the early rate of warm runs).
	Rate float64
	// ETA estimates the remaining wall time from Rate; zero when the
	// run is complete or no rate is measurable yet.
	ETA time.Duration
}

// timing fills the Elapsed/Rate/ETA fields of a Progress from a run
// start time.
func (p Progress) timing(start time.Time) Progress {
	p.Elapsed = time.Since(start)
	if s := p.Elapsed.Seconds(); s > 0 && p.Completed > 0 {
		p.Rate = float64(p.Completed) / s
		if rem := p.Total - p.Completed; rem > 0 {
			p.ETA = time.Duration(float64(rem) / p.Rate * float64(time.Second))
		}
	}
	return p
}

func (o Options) internal() experiments.Options {
	return experiments.Options{
		Seed:        o.Seed,
		Duration:    o.Duration,
		Warmup:      o.Warmup,
		Reps:        o.Reps,
		ClipSeconds: o.ClipSeconds,
		CDNFlows:    o.CDNFlows,
		CIHalfWidth: o.CIHalfWidth,
		MinReps:     o.MinReps,
		Collector:   o.Collector.raw(),
	}
}

// ErrCanceled reports that a run was abandoned because its context
// was canceled before all of its cells executed. Cells already
// simulating at cancellation drain to completion and stay cached, so
// repeating the canceled call re-simulates only the abandoned cells.
// Test with errors.Is: deadline and cancellation both surface as this
// value.
var ErrCanceled = experiments.ErrCanceled

// ErrCellPanicked reports that a run failed because one of its cells
// panicked — a bug in the simulator, not in the request. Test with
// errors.Is; the error's text names the panic value. The session
// stays usable, and the cell is not cached, so a retry recomputes it.
var ErrCellPanicked = experiments.ErrCellPanicked

// Result is a rendered experiment outcome.
type Result struct {
	// ID is the experiment identifier (e.g. "fig7b").
	ID string
	// Text is the paper-style rendering of all result grids.
	Text string

	inner *experiments.Result
}

// Value returns one cell's numeric value from the i-th grid. Legacy
// behavior, kept for compatibility: unknown grid indices and
// row/column labels silently return 0, indistinguishable from a real
// zero-valued cell. New code should use Lookup.
func (r *Result) Value(grid int, row, col string) float64 {
	v, _ := r.Lookup(grid, row, col)
	return v
}

// Lookup returns one cell's numeric value from the i-th grid and
// whether the addressed cell exists; unknown grid indices and
// row/column labels report false instead of a forged zero.
func (r *Result) Lookup(grid int, row, col string) (float64, bool) {
	if r.inner == nil || grid < 0 || grid >= len(r.inner.Grids) {
		return 0, false
	}
	c, ok := r.inner.Grids[grid].Lookup(row, col)
	return c.Value, ok
}

// Experiments lists all experiment IDs (tables, figures, ablations).
func Experiments() []string { return experiments.IDs() }

// Run executes one experiment by ID on the default session.
func Run(id string, o Options) (*Result, error) { return defaultSession.Run(id, o) }

// Outcome is one experiment's entry in a RunAll batch: the result or
// the error, plus the wall time spent.
type Outcome struct {
	ID      string
	Result  *Result
	Err     error
	Elapsed time.Duration
}

// RunAll executes a batch of experiments through the default
// session's cell engine and returns one Outcome per ID, in input
// order. Experiments run concurrently and their cells fan out across
// the worker pool (see SetParallelism); a failing experiment records
// its error without stopping the batch, and cells shared between
// experiments are simulated once per session. Results are
// bit-identical to running each ID alone, sequentially: every cell's
// seed is derived from its canonical spec, never from scheduling.
func RunAll(ids []string, o Options) []Outcome { return defaultSession.RunAll(ids, o) }

// SetParallelism resizes the default session's worker pool; n <= 0
// means GOMAXPROCS. Parallelism never changes results. Independent
// callers should prefer their own Session over resizing the shared
// default.
func SetParallelism(n int) { defaultSession.SetParallelism(n) }

// Parallelism returns the default session's worker-pool size.
func Parallelism() int { return defaultSession.Parallelism() }

// EngineStats is a snapshot of the cell engine's counters: pool size,
// cached cells, how many cell requests were answered from the cache
// versus simulated, and how many were abandoned by cancellation.
type EngineStats struct {
	Workers     int
	CachedCells int
	Hits        uint64
	Misses      uint64
	// Canceled counts cells abandoned before execution because their
	// run's context was canceled.
	Canceled uint64
	// InFlight, QueueDepth, and Waiters are live gauges: cells
	// currently executing, callers waiting for a worker slot, and
	// callers coalesced onto another caller's in-flight cell. All
	// three return to zero when the engine is idle — including after
	// canceled batches.
	InFlight   int64
	QueueDepth int64
	Waiters    int64
	// StoreHits counts cells answered from the persistent store tier
	// (no simulation ran), StoreMisses counts store lookups that fell
	// through to a fresh compute, and StoreWrites counts results
	// accepted by the store for persistence. All zero unless the
	// session opened a store (Session.OpenStore / qoebench -store).
	// A fully warm store shows Misses == 0 with StoreHits covering
	// every unique cell.
	StoreHits   uint64
	StoreMisses uint64
	StoreWrites uint64
}

// Stats snapshots the default session's cell engine.
func Stats() EngineStats { return defaultSession.Stats() }

// Network selects a testbed.
type Network string

// The two testbeds of Figure 3.
const (
	Access   Network = "access"
	Backbone Network = "backbone"
)

// Direction selects where the background congestion is applied
// (access testbed only; the backbone is downstream-only).
type Direction string

// Congestion directions.
const (
	Down  Direction = "down"
	Up    Direction = "up"
	Bidir Direction = "bidir"
)

func (d Direction) internal() (testbed.Direction, error) {
	switch d {
	case Down, "":
		return testbed.DirDown, nil
	case Up:
		return testbed.DirUp, nil
	case Bidir:
		return testbed.DirBidir, nil
	default:
		return 0, fmt.Errorf("bufferqoe: unknown direction %q", d)
	}
}

// Scenarios returns the valid workload names for a network (Table 1).
func Scenarios(n Network) []string {
	if n == Backbone {
		return append([]string(nil), testbed.BackboneScenarioNames...)
	}
	return append([]string(nil), testbed.AccessScenarioNames...)
}

// BufferSizes returns the paper's buffer sweep for a network
// (Table 2).
func BufferSizes(n Network) []int {
	if n == Backbone {
		return append([]int(nil), sizing.BackboneBufferSizes...)
	}
	return append([]int(nil), sizing.AccessBufferSizes...)
}

// VoIPResult is the outcome of a MeasureVoIP probe.
type VoIPResult struct {
	// ListenMOS scores the remote-speaker direction, TalkMOS the
	// user's own. On the backbone only ListenMOS is populated.
	ListenMOS, TalkMOS float64
	// ListenRating / TalkRating are the Figure 6a categories.
	ListenRating, TalkRating string
}

// MeasureVoIP runs VoIP calls under the named workload and returns
// median scores. Unknown scenarios, directions, or non-positive
// buffers return an error.
func MeasureVoIP(n Network, scenario string, dir Direction, buffer int, o Options) (VoIPResult, error) {
	return defaultSession.MeasureVoIP(n, scenario, dir, buffer, o)
}

// WebResult is the outcome of a MeasureWeb probe.
type WebResult struct {
	MedianPLT time.Duration
	MOS       float64
	Rating    string
}

// MeasureWeb fetches the paper's static page under the named workload
// and returns the median page load time with its G.1030 score.
func MeasureWeb(n Network, scenario string, dir Direction, buffer int, o Options) (WebResult, error) {
	return defaultSession.MeasureWeb(n, scenario, dir, buffer, o)
}

// VideoResult is the outcome of a MeasureVideo probe.
type VideoResult struct {
	SSIM   float64
	MOS    float64
	Rating string
}

// MeasureVideo streams the paper's clip C at "SD" (4 Mbit/s) or "HD"
// (8 Mbit/s) and returns the median SSIM with its MOS mapping.
func MeasureVideo(n Network, scenario, profile string, buffer int, o Options) (VideoResult, error) {
	return defaultSession.MeasureVideo(n, scenario, profile, buffer, o)
}

// SweepGrid runs a sweep on the default session; see Session.Sweep.
func SweepGrid(sw Sweep, o Options) (*Grid, error) { return defaultSession.Sweep(sw, o) }

// Scheme is one buffer sizing recommendation.
type Scheme struct {
	Name     string
	Packets  int
	MaxDelay time.Duration
}

// SizingSchemes returns the paper's sizing schemes evaluated for a
// link of the given rate (bits/s), round-trip time, and expected
// concurrent flow count.
func SizingSchemes(rateBps float64, rtt time.Duration, flows int) []Scheme {
	bdp := sizing.BDPPackets(rateBps, rtt)
	mk := func(name string, pkts int) Scheme {
		return Scheme{Name: name, Packets: pkts, MaxDelay: sizing.MaxQueueingDelay(pkts, rateBps)}
	}
	return []Scheme{
		mk("rule-of-thumb (BDP)", bdp),
		mk("stanford (BDP/sqrt(n))", sizing.StanfordPackets(bdp, flows)),
		mk("tiny", sizing.TinyPackets()),
		mk("bloated (10x BDP)", sizing.BloatedPackets(bdp)),
	}
}
