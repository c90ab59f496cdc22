// Package layers holds the benchmark's per-layer probes. Each probe
// times one layer of the simulator from outside, calling only that
// package's exported functions, so the per-unit costs (ns per event,
// per packet hop, per TCP segment, per AQM operation, per TXOP, per
// score, per store operation) can be set against what a whole cell
// and a whole request cost. Nothing here adds instrumentation to the
// program, and nothing uses the closure scheduling tier or the
// Measure* probes the roadmap plans to delete.
package layers

import (
	"runtime"
	"sort"
	"time"

	"bufferqoe"
)

// Value is one probe reading.
type Value struct {
	V    float64
	Unit string
}

// Set collects the readings of one Run, keyed by metric name.
type Set map[string]Value

// prober is one Run in progress: the readings so far and how much
// time and simulated work each probe may spend.
type prober struct {
	set Set
	// batch is how long one timed batch lasts. Five batches are taken
	// and the median reported, so a probe costs about six batches
	// including calibration.
	batch time.Duration
	// cellOpts are the options of the whole-cell and facade probes.
	cellOpts bufferqoe.Options
}

func (s *prober) put(name string, v float64, unit string) { s.set[name] = Value{v, unit} }

// perOp returns the host time of one call of op in nanoseconds: the
// median over five batches, each sized to last at least s.batch, so
// two batches hit by a descheduled core or a collector cycle do not
// move the reading.
func (s *prober) perOp(op func()) float64 {
	batchTime := s.batch
	batch := func(n int) time.Duration {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			op()
		}
		return time.Since(t0)
	}
	n := 1
	for n < 1<<26 {
		d := batch(n)
		if d >= batchTime {
			break
		}
		if d < batchTime/16 {
			n *= 8
		} else {
			n *= 2
		}
	}
	runs := make([]float64, 5)
	for i := range runs {
		runs[i] = float64(batch(n)) / float64(n)
	}
	sort.Float64s(runs)
	return runs[len(runs)/2]
}

// heapDelta runs fn and returns how many objects and bytes it
// allocated. Probes run on one goroutine with nothing else active, so
// the process-wide counters attribute to fn.
func heapDelta(fn func()) (mallocs, bytes float64) {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	fn()
	runtime.ReadMemStats(&b)
	return float64(b.Mallocs - a.Mallocs), float64(b.TotalAlloc - a.TotalAlloc)
}

// Run executes every probe and returns the readings. tmpDir is a
// directory the store probe may fill and remove. quick shortens every
// probe to a smoke test of itself (millisecond batches, one short
// repetition per cell): the readings exist but mean little.
func Run(tmpDir string, quick bool) (Set, error) {
	runtime.GC() // whatever ran before leaves its garbage to this process's collector
	s := &prober{set: Set{}, batch: 15 * time.Millisecond}
	if quick {
		s.batch = time.Millisecond
		s.cellOpts = bufferqoe.Options{Duration: 4 * time.Second, Warmup: 2 * time.Second, Reps: 1}
	}
	simProbes(s)
	netemProbes(s)
	tcpProbes(s)
	aqmProbes(s)
	macProbes(s)
	qoeProbes(s)
	testbedProbes(s)
	statsProbes(s)
	engineProbes(s)
	if err := storeProbes(s, tmpDir); err != nil {
		return nil, err
	}
	if err := cellProbes(s); err != nil {
		return nil, err
	}
	if err := facadeProbes(s); err != nil {
		return nil, err
	}
	return s.set, nil
}
