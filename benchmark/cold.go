package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"time"

	"bufferqoe"
)

// How a cold workload divides --seconds between its timed sweep
// rounds, its warm re-query loop and its cold Recommend passes; set-up
// and the correctness checks take the rest.
const (
	coldRoundShare     = 0.55
	coldWarmShare      = 0.10
	coldRecommendShare = 0.25
)

// nproc is the load every workload offers: that many cell workers,
// that many closed-loop callers.
func nproc() int { return runtime.NumCPU() }

func newSession() *bufferqoe.Session {
	s := bufferqoe.NewSession()
	s.SetParallelism(nproc())
	return s
}

// roundSeed is the seed of a run's r-th round: --seed itself for the
// first, then steps far larger than the distance between the seeds
// anyone passes, so two runs never share a draw.
func roundSeed(seed uint64, r int) uint64 { return seed + uint64(r)*1_000_003 }

// coldRound is one timed sweep of the grid on a fresh session: cold
// cell cache, cold workers, no store.
type coldRound struct {
	sess  *bufferqoe.Session
	opts  bufferqoe.Options
	grid  *bufferqoe.Grid
	wallS float64
	cpuS  float64
	fresh float64 // cells simulated
	rssMB float64 // the process's peak resident set over the round
}

func sweepRound(ctx context.Context, sw bufferqoe.Sweep, opts bufferqoe.Options, col *bufferqoe.Collector) (coldRound, error) {
	resetPeakRSS() // start every round from a collected heap and a fresh peak
	r := coldRound{sess: newSession(), opts: opts}
	if col != nil {
		r.sess.SetCollector(col)
	}
	w := startWatch()
	grid, err := r.sess.SweepCtx(ctx, sw, opts)
	r.wallS, r.cpuS = w.stop()
	r.rssMB = peakRSSMB("self")
	if err != nil {
		return r, err
	}
	r.grid = grid
	r.fresh = float64(r.sess.Stats().Misses)
	if r.fresh == 0 {
		return r, errors.New("a cold round simulated no cell")
	}
	return r, nil
}

// runCold measures one cold workload end to end with no collector
// attached.
func runCold(ctx context.Context, d coldDef, cfg runConfig) (*result, error) {
	res, t := newResult(d.name, cfg), &tally{}
	opts := cfg.options()
	sw := d.sweep()

	// One untimed slice first: on this kind of machine a process started
	// after an idle minute runs its first second or so markedly slower,
	// and with two or three rounds to a run the median cannot shrug the
	// first one off.
	warm, err := newSession().SweepCtx(ctx, d.slice(), opts)
	if err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	t.checkCells("warm-up", warm.Cells)

	// Phase A: timed rounds. A new round starts while half of one
	// still fits the phase's share of --seconds. How much a cell costs
	// depends on the traffic the seed draws (a BBR cell by a quarter
	// either way), and every cell of a scenario replays one draw, so
	// each round sweeps the grid under its own seed derived from
	// --seed: the median round then stands for several draws, not one.
	// Only one session is alive at a time — a round's is dropped before
	// the next one starts (sweepRound collects it and restarts the
	// process's peak resident set) — so a round's peak memory is what
	// one session sweeping the grid needs, whatever ran before it.
	budget := cfg.seconds.Seconds() * coldRoundShare
	var last coldRound
	var cps, cpuMS, rssMB []float64
	for start := time.Now(); ; {
		last = coldRound{}
		ro := opts
		ro.Seed = roundSeed(cfg.seed, len(cps))
		r, err := sweepRound(ctx, sw, ro, nil)
		if err != nil {
			return nil, fmt.Errorf("round %d: %w", len(cps)+1, err)
		}
		if len(cps) == 0 {
			res.Digests["grid"] = gridDigest(r.grid) // the round under --seed itself
		}
		cps = append(cps, r.fresh/r.wallS)
		cpuMS = append(cpuMS, r.cpuS*1e3/r.fresh)
		rssMB = append(rssMB, r.rssMB)
		t.checkCells("sweep", r.grid.Cells)
		last = r
		if time.Since(start).Seconds()+r.wallS/2 > budget {
			break
		}
	}
	res.setMedian("cells_per_s", cps, "cells/s")
	res.setMedian("cpu_ms_per_cell", cpuMS, "ms")
	res.setMedian("peak_rss_mb", rssMB, "MB")

	// Phase C, run while the last round's session is still there: the
	// same grid asked again of the session that just computed it — a
	// dashboard re-plotting — by nproc callers in a closed loop. Every
	// reply must render to the same JSON.
	ref, err := last.grid.JSON()
	if err != nil {
		return nil, err
	}
	loop := closedLoop(ctx, nproc(), time.Duration(cfg.seconds.Seconds()*coldWarmShare*float64(time.Second)), func(_, _ int) error {
		g, err := last.sess.SweepCtx(ctx, sw, last.opts)
		if err != nil {
			return err
		}
		js, err := g.JSON()
		if err != nil {
			return err
		}
		if !bytes.Equal(js, ref) {
			return errors.New("warm reply differs from the cold one")
		}
		return nil
	})
	t.addLoop("warm re-queries", loop)
	t.check(float64(last.sess.Stats().Misses) == last.fresh, "warm re-queries simulated cells")
	reportLoop(res, loop)
	last.sess = nil
	runtime.GC()

	// Set-up, several times over: a fresh session answering its first
	// slice of the grid, which is when its workers build their testbed
	// carcass, speech library and video source. What that costs does
	// not depend on how old the process is, but a machine that sat idle
	// runs its first second or so up to half slower, so set-up is timed
	// here, with the sweeps behind it, not first thing.
	var setups []float64
	for i := 0; i < cfg.setups(); i++ {
		t0 := time.Now()
		g, err := newSession().SweepCtx(ctx, d.slice(), opts)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		t.checkCells("set-up", g.Cells)
	}
	res.setMedian("setup_s", setups, "s")

	// Phase B: cold sizing questions, each on an emptied cache. The
	// search is sequential, so its time follows the cells on its
	// critical path rather than how well a grid packs the pool. Like
	// the sweep, the list is asked again under derived seeds while half
	// a pass still fits the phase's share; the questions differ in cost
	// by design, so a pass counts as the mean over its list (a median
	// would report whichever question a seed makes the middle one) and
	// the run as the median pass.
	budget = cfg.seconds.Seconds() * coldRecommendShare
	var recS []float64
	sess := newSession()
	for start := time.Now(); ; {
		ro := opts
		ro.Seed = roundSeed(cfg.seed, len(recS))
		recDigest := newDigest()
		t0 := time.Now()
		for _, spec := range d.recommends {
			sess.ResetCache()
			rec, err := sess.Recommend(ctx, spec, ro)
			if err != nil {
				return nil, fmt.Errorf("recommend %s: %w", spec.Scenario.Label(), err)
			}
			t.check(rec.CellsEvaluated > 0 && len(rec.Cells) == len(spec.Probes), "recommend %s: evaluated %d cells, answered %d",
				spec.Scenario.Label(), rec.CellsEvaluated, len(rec.Cells))
			t.checkCells("recommend", rec.Cells)
			recDigest.recommendation(rec)
		}
		passS := time.Since(t0).Seconds()
		if len(recS) == 0 {
			res.Digests["recommend"] = recDigest.sum() // the pass under --seed itself
		}
		recS = append(recS, passS/float64(len(d.recommends)))
		if time.Since(start).Seconds()+passS/2 > budget {
			break
		}
	}
	res.setMedian("recommend_cold_s", recS, "s")

	if cfg.smoke || !t.checkDigests(d.name, cfg.seed, res.Digests) {
		if err := recomputeSample(ctx, t, d, last.grid, last.opts); err != nil {
			return nil, err
		}
	}
	res.close(t)
	return res, ctx.Err()
}

// reportLoop turns a closed loop's samples into the two gated request
// metrics, each the median over the loop's windows, and notes the tail
// latency beside them. The tail is not gated: run to run it moves by
// 15-30 % on the cold workloads' in-process loops (see README.md), so
// it is a per-layer reading of serve_warm's traced run instead.
func reportLoop(res *result, loop loopResult) {
	perS, p50, tail, p := loop.windowed(99)
	res.setMedian("req_per_s", perS, "req/s")
	res.setMedian("req_p50_ms", p50, "ms")
	res.Notes = append(res.Notes, fmt.Sprintf("tail latency: p%g = %.4g ms (median of %d windows, %d samples in all; reported, not gated)",
		p, median(tail), len(loop.Windows), len(loop.LatMS)))
}

// recomputeSample recomputes three cells of the grid, picked from the
// seed, on a fresh session each (side by side) and demands bit-equal
// values: for a seed no digest is pinned for, this is what shows the
// grid is a function of its inputs and not of the run.
func recomputeSample(ctx context.Context, t *tally, d coldDef, grid *bufferqoe.Grid, opts bufferqoe.Options) error {
	rng := rand.New(rand.NewSource(int64(opts.Seed)))
	np, nb := len(paperProbes), len(d.buffers)
	const samples = 3
	var picked [samples]int
	var got [samples]*bufferqoe.Grid
	var errs [samples]error
	var wg sync.WaitGroup
	for k := range picked {
		i := rng.Intn(len(grid.Cells))
		picked[k] = i
		si, pi, bi := i/(np*nb), (i/nb)%np, i%nb
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			got[k], errs[k] = bufferqoe.NewSession().SweepCtx(ctx, bufferqoe.Sweep{
				Scenarios: d.scenarios[si : si+1], Buffers: d.buffers[bi : bi+1], Probes: paperProbes[pi : pi+1],
			}, opts)
		}(k)
	}
	wg.Wait()
	for k, i := range picked {
		if errs[k] != nil {
			return fmt.Errorf("recompute: %w", errs[k])
		}
		want, have := grid.Cells[i], got[k].Cells[0]
		t.check(have == want, "recomputed cell %s/%s@%d = %+v, the sweep had %+v", want.Scenario, want.Probe, want.Buffer, have, want)
	}
	return nil
}
