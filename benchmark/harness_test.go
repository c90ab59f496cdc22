package main

import (
	"bytes"
	"context"
	"errors"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"bufferqoe"
)

// The tail figure is the highest percentile with at least ten samples
// beyond it.
func TestTailPercentileRule(t *testing.T) {
	for _, c := range []struct {
		n     int
		limit float64
		want  float64
	}{
		{5, 99, 50},        // too small for any rung: the median
		{20, 99, 50},       // p90 would leave 2 beyond
		{100, 99, 90},      // p90 leaves 10, p95 leaves 5
		{200, 99, 95},      // p95 leaves 10
		{999, 99, 95},      // p99 leaves 9
		{1000, 99, 99},     // p99 leaves exactly 10
		{50000, 99, 99},    // capped at the limit
		{50000, 100, 99.9}, // p99.9 leaves 50
	} {
		if got := tailPercentile(c.n, c.limit); got != c.want {
			t.Errorf("tailPercentile(%d, %g) = %g, want %g", c.n, c.limit, got, c.want)
		}
	}
	sorted := make([]float64, 1000)
	for i := range sorted {
		sorted[i] = float64(i + 1)
	}
	if got := percentile(sorted, 99); got != 990 {
		t.Errorf("p99 of 1..1000 = %g, want 990 (ten samples beyond)", got)
	}
	if got := percentile(sorted, 50); got != 500 {
		t.Errorf("p50 of 1..1000 = %g, want 500", got)
	}
}

// quartiles must agree with Python's statistics.quantiles(xs, n=4),
// which the driver uses for the spread.
func TestQuartilesMatchPython(t *testing.T) {
	xs := []float64{12, 3, 7, 9, 15, 1, 8, 20, 11, 5}
	q1, q3 := quartiles(xs) // statistics.quantiles(xs, n=4) -> [4.5, 8.5, 12.75]
	if q1 != 4.5 || q3 != 12.75 {
		t.Errorf("quartiles = %g, %g, want 4.5, 12.75", q1, q3)
	}
	if m := median(xs); m != 8.5 {
		t.Errorf("median = %g, want 8.5", m)
	}
	if s := spread(xs); math.Abs(s-8.25/8.5) > 1e-12 {
		t.Errorf("spread = %g, want %g", s, 8.25/8.5)
	}
	// Few values: the cut points fall outside the sample's interior and
	// Python extrapolates from the nearest pair.
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{10, 20}, 7.5, 22.5},
		{[]float64{40, 10, 20}, 10, 40},
		{[]float64{1, 2, 3, 4}, 1.25, 3.75},
		{[]float64{3, 1, 10, 7, 5}, 2, 8.5},
	} {
		if q1, q3 := quartiles(c.xs); q1 != c.q1 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %g, %g, want %g, %g", c.xs, q1, q3, c.q1, c.q3)
		}
	}
}

// A span's self time is its duration minus the union of its children,
// clipped to the span: overlapping children are not counted twice and
// a child sticking out of its parent takes nothing it does not cover.
func TestSpanSelfTime(t *testing.T) {
	for _, c := range []struct {
		name string
		kids [][2]int64
		want int64
	}{
		{"no children", nil, 100},
		{"disjoint", [][2]int64{{10, 20}, {50, 70}}, 70},
		{"overlapping", [][2]int64{{10, 60}, {40, 80}}, 30},
		{"nested", [][2]int64{{10, 90}, {20, 30}}, 20},
		{"sticking out", [][2]int64{{-50, 10}, {95, 400}}, 85},
		{"unordered", [][2]int64{{60, 80}, {0, 30}, {20, 50}}, 30},
	} {
		if got := selfTime(0, 100, c.kids); got != c.want {
			t.Errorf("%s: self time %d, want %d", c.name, got, c.want)
		}
	}
	r := newRecorder()
	root := r.add(0, "call", 0, 1000, nil)
	r.cell(root, "a", 600, 0.0001, 0.0003, 0.0001) // 100+300+100 ns, ends at 600
	r.cell(root, "b", 700, 0, 0.0004, 0)           // overlaps a on another worker
	spans := r.finish()
	if spans[0].SelfNS != 400 { // a covers [100, 600), b [300, 700): 600 ns, once
		t.Errorf("root self time %d, want 400", spans[0].SelfNS)
	}
	self := selfByName(spans)
	if got := self["sim"]; math.Abs(got-700e-9) > 1e-15 {
		t.Errorf("sim self time %g s, want 700 ns", got)
	}
	if self["cell"] != 0 {
		t.Errorf("a cell is all phases, self time %g", self["cell"])
	}
}

// The grid digest must not depend on how many workers computed it.
func TestDigestStableAcrossParallelism(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates cells")
	}
	sw := bufferqoe.Sweep{
		Scenarios: []bufferqoe.Scenario{{Workload: "noBG"}, {Workload: "short-few", Direction: bufferqoe.Up}},
		Buffers:   []int{8, 64},
		Probes:    []bufferqoe.Probe{{Media: bufferqoe.VoIP}, {Media: bufferqoe.Web}},
	}
	opts := bufferqoe.Options{Seed: 7, Duration: 4 * time.Second, Warmup: 2 * time.Second, Reps: 1}
	var digests []string
	for _, workers := range []int{1, nproc(), 4} {
		s := bufferqoe.NewSession()
		s.SetParallelism(workers)
		g, err := s.Sweep(sw, opts)
		if err != nil {
			t.Fatal(err)
		}
		digests = append(digests, gridDigest(g))
		tl := &tally{}
		tl.checkCells("test", g.Cells)
		if tl.Failed != 0 || tl.Attempted != len(g.Cells) {
			t.Errorf("range check: %d failed of %d: %v", tl.Failed, tl.Attempted, tl.Notes)
		}
	}
	if digests[0] != digests[1] || digests[0] != digests[2] {
		t.Errorf("digest depends on parallelism: %v", digests)
	}
	opts.Seed = 8
	g, err := bufferqoe.NewSession().Sweep(sw, opts)
	if err != nil {
		t.Fatal(err)
	}
	if gridDigest(g) == digests[0] {
		t.Error("digest does not depend on the seed")
	}
}

func TestCellRangeCheck(t *testing.T) {
	good := []bufferqoe.SweepCell{
		{Metric: "mos", Value: 4.4, MOS: 4.4, TalkMOS: 1},
		{Metric: "mos", Value: 3, MOS: 3}, // backbone: no talk direction
		{Metric: "plt_s", Value: 0.7, MOS: 4.9},
		{Metric: "ssim", Value: 1, MOS: 5},
	}
	bad := []bufferqoe.SweepCell{
		{Metric: "mos", Value: 4.6, MOS: 4.6},
		{Metric: "mos", Value: 3, MOS: 3, TalkMOS: 0.5},
		{Metric: "plt_s", Value: 0, MOS: 3},
		{Metric: "plt_s", Value: math.Inf(1), MOS: 1},
		{Metric: "ssim", Value: 1.2, MOS: 5},
		{Metric: "ssim", Value: math.NaN(), MOS: 2},
		{Metric: "", Value: 1, MOS: 1},
	}
	for _, c := range good {
		if !cellInRange(c) {
			t.Errorf("in-range cell rejected: %+v", c)
		}
	}
	for _, c := range bad {
		if cellInRange(c) {
			t.Errorf("out-of-range cell accepted: %+v", c)
		}
	}
}

// The closed loop never has more than its client count in flight and
// counts failures against attempts.
func TestClosedLoopAgainstServer(t *testing.T) {
	const clients = 2
	var inFlight, maxInFlight, served atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		n := inFlight.Add(1)
		for {
			m := maxInFlight.Load()
			if n <= m || maxInFlight.CompareAndSwap(m, n) {
				break
			}
		}
		time.Sleep(200 * time.Microsecond)
		inFlight.Add(-1)
		if served.Add(1)%10 == 0 {
			http.Error(w, "every tenth request fails", http.StatusInternalServerError)
			return
		}
		w.Write([]byte("ok"))
	}))
	defer srv.Close()
	c := newClient(srv.Listener.Addr().String())
	defer c.close()

	loop := closedLoop(context.Background(), clients, 300*time.Millisecond, func(int, int) error {
		r, err := c.get(context.Background(), "/")
		if err == nil && r.status != http.StatusOK {
			err = errors.New("not ok")
		}
		return err
	})
	if got := maxInFlight.Load(); got > clients {
		t.Errorf("%d requests in flight, the loop has %d callers", got, clients)
	}
	if loop.Attempted != int(served.Load()) || loop.Attempted < 20 {
		t.Errorf("loop attempted %d, server saw %d", loop.Attempted, served.Load())
	}
	if want := int(served.Load()) / 10; loop.Failed != want {
		t.Errorf("loop counted %d failures, server failed %d", loop.Failed, want)
	}
	if len(loop.LatMS) != loop.Attempted {
		t.Errorf("%d latency samples for %d attempts", len(loop.LatMS), loop.Attempted)
	}
	// A failed request misses any limit: the failures sit at the top.
	if !math.IsInf(loop.LatMS[len(loop.LatMS)-1], 1) || math.IsInf(loop.LatMS[len(loop.LatMS)-1-loop.Failed], 1) {
		t.Error("failed attempts are not the slowest samples")
	}
	tl := &tally{}
	tl.addLoop("requests", loop)
	if tl.Attempted != loop.Attempted || tl.Failed != loop.Failed || len(tl.Notes) != 1 {
		t.Errorf("tally %+v does not match loop %d/%d", tl, loop.Failed, loop.Attempted)
	}
	perS, p50, tail, p := loop.windowed(99)
	if len(perS) != loopWindows || len(p50) != loopWindows || len(tail) != loopWindows {
		t.Fatalf("%d/%d/%d window figures, want %d each", len(perS), len(p50), len(tail), loopWindows)
	}
	completed := 0
	for _, w := range loop.Windows {
		completed += w.Completed
	}
	if completed != loop.Attempted-loop.Failed {
		t.Errorf("windows hold %d completed requests, the loop %d", completed, loop.Attempted-loop.Failed)
	}
	if want := mean(perS) * 0.3; math.Abs(want-float64(completed)) > 1 {
		t.Errorf("window throughputs add up to %g requests, want %d", want, completed)
	}
	if p > 95 {
		t.Errorf("tail figure p%g on windows of a few hundred samples", p)
	}
}

func TestPromCounts(t *testing.T) {
	text := []byte(`# HELP qoe_cells_simulated_total cells
# TYPE qoe_cells_simulated_total counter
qoe_cells_simulated_total 81
qoe_sim_events_total{tier="pooled"} 100
qoe_sim_events_total{tier="owned"} 50
qoe_cell_wall_seconds_bucket{le="0.1"} 7
qoe_cell_wall_seconds_sum 12.5
qoe_reps_per_cell_count 81
`)
	c := promCounts(text)
	if c["qoe_cells_simulated_total"] != 81 || c["qoe_sim_events_total"] != 150 || c["qoe_cell_wall_seconds_sum"] != 12.5 {
		t.Errorf("parsed %v", c)
	}
	if _, ok := c["qoe_cell_wall_seconds_bucket"]; ok {
		t.Error("histogram buckets must be skipped")
	}
}

func TestVerdict(t *testing.T) {
	lower := metricSpec{Name: "ms", Better: "lower", Bound: 0.10}
	higher := metricSpec{Name: "ops", Better: "higher", Bound: 0.10}
	steady := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	shift := func(xs []float64, f float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x * f
		}
		return out
	}
	noisy := []float64{100, 140, 70, 120, 85, 150, 60, 110, 95, 130}
	for _, c := range []struct {
		name           string
		spec           metricSpec
		change, parent []float64
		want           string
	}{
		{"same", lower, steady, steady, "unchanged"},
		{"faster", lower, shift(steady, 0.8), steady, "improved"},
		{"slower within bound", lower, shift(steady, 1.05), steady, "unchanged"},
		{"slower beyond bound", lower, shift(steady, 1.2), steady, "regressed"},
		{"more ops", higher, shift(steady, 1.2), steady, "improved"},
		{"fewer ops", higher, shift(steady, 0.8), steady, "regressed"},
		{"noise wider than bound", lower, shift(noisy, 1.05), noisy, "unresolved"},
		{"every run better despite noise", lower, shift(noisy, 0.3), noisy, "improved"},
	} {
		if got, _ := verdict(c.spec, c.change, c.parent); got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
	// Wins are counted over pairs, run i against run i: a host that
	// slows down steadily while the pairs are taken hides nothing.
	drifting := []float64{100, 103, 106, 109, 112, 115, 118, 121, 124, 127}
	if _, wins := verdict(lower, shift(drifting, 0.98), drifting); wins != 1 {
		t.Errorf("change 2 %% faster in every pair on a drifting host: win share %g, want 1", wins)
	}
}

// A change that fails more often than its parent is credited with no
// gain and has regressed on fail_ratio; unequal run counts cannot be
// paired.
func TestCompareFailuresAndPairing(t *testing.T) {
	m := &manifest{EndToEnd: []metricSpec{{Name: "ms", Unit: "ms", Better: "lower", Bound: 0.10}}}
	runs := func(ms float64, failed, n int) []*result {
		var out []*result
		for i := 0; i < n; i++ {
			out = append(out, &result{Workload: "w", Attempted: 100, Failed: failed, Metrics: map[string]metric{"ms": {ms + float64(i), "ms"}}})
		}
		return out
	}
	side := func(rs []*result) map[string][]*result { return map[string][]*result{"w": rs} }
	var out bytes.Buffer
	if regressed, err := printComparison(&out, m, side(runs(50, 0, 10)), side(runs(100, 0, 10))); err != nil || regressed || !strings.Contains(out.String(), "improved") {
		t.Errorf("faster, no failures: regressed %v, err %v\n%s", regressed, err, &out)
	}
	out.Reset()
	if regressed, err := printComparison(&out, m, side(runs(50, 1, 10)), side(runs(100, 0, 10))); err != nil || !regressed || strings.Contains(out.String(), "improved") {
		t.Errorf("faster but failing: regressed %v, err %v; want a fail_ratio regression and no gain\n%s", regressed, err, &out)
	}
	if _, err := printComparison(io.Discard, m, side(runs(50, 0, 9)), side(runs(100, 0, 10))); err == nil {
		t.Error("9 runs against 10 were compared; want an error")
	}
}
