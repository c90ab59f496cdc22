package main

import (
	"context"
	"math"
	"sort"
	"sync"
	"time"
)

// loopResult is what one closed-loop run observed.
type loopResult struct {
	Attempted int
	Failed    int
	Wall      time.Duration
	// LatMS holds one latency per attempt, ascending. A failed attempt
	// is recorded as +Inf: it misses any latency limit, so enough
	// failures lift the tail percentile out of range instead of
	// flattering it.
	LatMS []float64
	// Windows splits the run into loopWindows equal stretches of time;
	// an attempt belongs to the window it started in. The reported
	// request metrics are medians over the windows, so one collector
	// pause or one descheduled caller moves one window, not the run.
	Windows []loopWindow
	// Window is the length of one of them.
	Window time.Duration
}

// loopWindow is one stretch of a closed-loop run.
type loopWindow struct {
	Completed int
	LatMS     []float64 // ascending, failed attempts +Inf
}

const loopWindows = 5

// closedLoop runs `clients` callers for d. Each caller issues op, waits
// for it to return, and only then issues its next one, so never more
// than `clients` operations are in flight and a slow system is offered
// less load — the behaviour of scripts and dashboards that wait for a
// reply. op receives the caller's index and a per-caller sequence
// number; a non-nil error counts the attempt as failed.
func closedLoop(ctx context.Context, clients int, d time.Duration, op func(client, seq int) error) loopResult {
	type sample struct {
		at     time.Duration // start, since the loop began
		ms     float64
		failed bool
	}
	per := make([][]sample, clients)
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for seq := 0; ctx.Err() == nil; seq++ {
				t0 := time.Now()
				if !t0.Before(deadline) {
					return
				}
				err := op(c, seq)
				per[c] = append(per[c], sample{t0.Sub(start), float64(time.Since(t0)) / 1e6, err != nil})
			}
		}(c)
	}
	wg.Wait()
	res := loopResult{Wall: time.Since(start), Windows: make([]loopWindow, loopWindows), Window: d / loopWindows}
	for _, ss := range per {
		for _, s := range ss {
			res.Attempted++
			w := &res.Windows[min(int(s.at*loopWindows/d), loopWindows-1)]
			if s.failed {
				res.Failed++
				s.ms = math.Inf(1)
			} else {
				w.Completed++
			}
			res.LatMS = append(res.LatMS, s.ms)
			w.LatMS = append(w.LatMS, s.ms)
		}
	}
	sort.Float64s(res.LatMS)
	for i := range res.Windows {
		sort.Float64s(res.Windows[i].LatMS)
	}
	return res
}

// windowed returns, per window, the completed operations per second,
// the median latency and the tail latency, and the percentile the
// tail figure is: the highest of the ladder, at most limit, that the
// smallest window still supports with ten samples beyond it.
func (r loopResult) windowed(limit float64) (perS, p50, tail []float64, tailP float64) {
	if len(r.Windows) == 0 {
		return nil, nil, nil, 0
	}
	smallest := len(r.Windows[0].LatMS)
	for _, w := range r.Windows {
		smallest = min(smallest, len(w.LatMS))
	}
	tailP = tailPercentile(smallest, limit)
	for _, w := range r.Windows {
		perS = append(perS, float64(w.Completed)/r.Window.Seconds())
		p50 = append(p50, percentile(w.LatMS, 50))
		tail = append(tail, percentile(w.LatMS, tailP))
	}
	return perS, p50, tail, tailP
}
