package bufferqoe

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
)

// TestRecommendMatchesFullGridArgmax is the recommender acceptance
// check: on the paper's access buffer sweep, the ternary search must
// land on the same optimal buffer an exhaustive grid argmax finds,
// while simulating strictly fewer cells (asserted via Session.Stats).
func TestRecommendMatchesFullGridArgmax(t *testing.T) {
	o := sweepOpts()
	sc := Scenario{Workload: "long-many", Direction: Up}
	probes := []Probe{{Media: VoIP}, {Media: Web}}
	buffers := BufferSizes(Access)

	// Exhaustive reference: full grid, argmax of the aggregate score.
	full := NewSession()
	grid, err := full.Sweep(Sweep{Scenarios: []Scenario{sc}, Buffers: buffers, Probes: probes}, o)
	if err != nil {
		t.Fatal(err)
	}
	gridCost := full.Stats().Misses
	bestBuf, bestScore := 0, -1.0
	for _, buf := range buffers {
		var sum float64
		for _, p := range probes {
			c, ok := grid.Cell(sc.Label(), p.Label(), buf)
			if !ok {
				t.Fatalf("grid missing cell %s/%s/%d", sc.Label(), p.Label(), buf)
			}
			sum += cellScore(c)
		}
		if score := sum / float64(len(probes)); score > bestScore {
			bestBuf, bestScore = buf, score
		}
	}

	s := NewSession()
	rec, err := s.Recommend(context.Background(), RecommendSpec{
		Scenario: sc, Probes: probes, Buffers: buffers, Target: MaxAggregateMOS,
	}, o)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Buffer != bestBuf {
		t.Fatalf("Recommend chose %d (score %.3f), full-grid argmax is %d (score %.3f); tried %v",
			rec.Buffer, rec.Score, bestBuf, bestScore, rec.BuffersTried)
	}
	if rec.Score != bestScore {
		t.Fatalf("Recommend score %.6f != grid score %.6f at the same buffer", rec.Score, bestScore)
	}
	searchCost := s.Stats().Misses
	if searchCost >= gridCost {
		t.Fatalf("search simulated %d cells, full grid %d — no savings", searchCost, gridCost)
	}
	if rec.CellsEvaluated >= rec.GridCells {
		t.Fatalf("CellsEvaluated %d not < GridCells %d", rec.CellsEvaluated, rec.GridCells)
	}
	if rec.GridCells != len(buffers)*len(probes) {
		t.Fatalf("GridCells = %d, want %d", rec.GridCells, len(buffers)*len(probes))
	}
	if len(rec.Cells) != len(probes) {
		t.Fatalf("Cells = %d, want one per probe", len(rec.Cells))
	}
	for i, c := range rec.Cells {
		if c.Buffer != rec.Buffer || c.Probe != probes[i].Label() {
			t.Fatalf("cell %d = %+v, want probe %s at buffer %d", i, c, probes[i].Label(), rec.Buffer)
		}
	}
	if rec.Scheme.Name == "" || rec.Scheme.Packets <= 0 {
		t.Fatalf("no nearest scheme reported: %+v", rec.Scheme)
	}
}

// TestRecommendReusesSessionCache: a sweep after a recommender run on
// the same session re-simulates nothing the search measured — both
// paths submit identical canonical cell specs.
func TestRecommendReusesSessionCache(t *testing.T) {
	o := sweepOpts()
	sc := Scenario{Workload: "long-many", Direction: Up}
	probes := []Probe{{Media: VoIP}}
	s := NewSession()
	rec, err := s.Recommend(context.Background(), RecommendSpec{
		Scenario: sc, Probes: probes, Buffers: BufferSizes(Access), Target: MaxAggregateMOS,
	}, o)
	if err != nil {
		t.Fatal(err)
	}
	before := s.Stats()
	grid, err := s.Sweep(Sweep{Scenarios: []Scenario{sc}, Buffers: rec.BuffersTried, Probes: probes}, o)
	if err != nil {
		t.Fatal(err)
	}
	after := s.Stats()
	if after.Misses != before.Misses {
		t.Fatalf("sweep after recommend re-simulated %d cells", after.Misses-before.Misses)
	}
	// And the numbers agree exactly.
	c, ok := grid.Cell(sc.Label(), probes[0].Label(), rec.Buffer)
	if !ok || cellScore(c) != rec.Score {
		t.Fatalf("sweep cell %+v (ok=%v) disagrees with recommendation score %.6f", c, ok, rec.Score)
	}
}

// TestRecommendMinBuffer: on an idle line every buffer satisfies the
// floor, so the binary search must return the smallest candidate
// after evaluating only O(log n) of them.
func TestRecommendMinBuffer(t *testing.T) {
	o := sweepOpts()
	s := NewSession()
	rec, err := s.Recommend(context.Background(), RecommendSpec{
		Scenario: Scenario{Workload: "noBG"},
		Probes:   []Probe{{Media: VoIP}, {Media: Web}},
		Buffers:  BufferSizes(Access),
	}, o)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Buffer != 8 || !rec.Met {
		t.Fatalf("idle line: buffer %d met=%v, want 8/true (tried %v)", rec.Buffer, rec.Met, rec.BuffersTried)
	}
	if len(rec.BuffersTried) >= len(BufferSizes(Access)) {
		t.Fatalf("binary search evaluated %v — the whole axis", rec.BuffersTried)
	}
}

// TestRecommendUnmetThresholdFallsBack: when no candidate satisfies
// an unreachable floor, the recommendation is flagged unmet and falls
// back to the best evaluated buffer.
func TestRecommendUnmetThresholdFallsBack(t *testing.T) {
	o := sweepOpts()
	rec, err := NewSession().Recommend(context.Background(), RecommendSpec{
		Scenario:  Scenario{Workload: "long-many", Direction: Up},
		Probes:    []Probe{{Media: VoIP}},
		Buffers:   BufferSizes(Access),
		Threshold: 4.9, // unreachable under heavy congestion
	}, o)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Met {
		t.Fatalf("threshold 4.9 reported met at buffer %d", rec.Buffer)
	}
	if rec.Buffer <= 0 || rec.Score <= 0 {
		t.Fatalf("no fallback recommendation: %+v", rec)
	}
}

// TestRecommendDefaultsBracketBDP: with no explicit axis, the
// candidates are the paper's sweep bracketed with the link's BDP.
func TestRecommendDefaultsBracketBDP(t *testing.T) {
	o := sweepOpts()
	rec, err := NewSession().Recommend(context.Background(), RecommendSpec{
		Scenario: Scenario{Workload: "noBG"},
		Probes:   []Probe{{Media: VoIP}},
	}, o)
	if err != nil {
		t.Fatal(err)
	}
	// The paper's DSL downlink BDP (16 Mbit/s, 50 ms RTT) is ~67
	// packets; the default axis must cover the paper's 8..256 sweep.
	if rec.GridCells < len(BufferSizes(Access)) {
		t.Fatalf("default axis too small: %+v", rec)
	}
}

// TestRecommendValidation: invalid specs fail before simulation.
func TestRecommendValidation(t *testing.T) {
	o := sweepOpts()
	s := NewSession()
	ctx := context.Background()
	cases := []struct {
		name string
		spec RecommendSpec
	}{
		{"no probes", RecommendSpec{Scenario: Scenario{Workload: "noBG"}}},
		{"duplicate probes", RecommendSpec{Scenario: Scenario{Workload: "noBG"},
			Probes: []Probe{{Media: VoIP}, {Media: VoIP}}}},
		{"unknown workload", RecommendSpec{Scenario: Scenario{Workload: "nope"},
			Probes: []Probe{{Media: VoIP}}}},
		{"bad buffer", RecommendSpec{Scenario: Scenario{Workload: "noBG"},
			Probes: []Probe{{Media: VoIP}}, Buffers: []int{0, 8}}},
		{"duplicate buffer", RecommendSpec{Scenario: Scenario{Workload: "noBG"},
			Probes: []Probe{{Media: VoIP}}, Buffers: []int{8, 8}}},
		{"unknown target", RecommendSpec{Scenario: Scenario{Workload: "noBG"},
			Probes: []Probe{{Media: VoIP}}, Target: "fastest"}},
	}
	for _, tc := range cases {
		if _, err := s.Recommend(ctx, tc.spec, o); err == nil {
			t.Fatalf("%s: expected error", tc.name)
		}
	}
	if st := s.Stats(); st.Misses != 0 {
		t.Fatalf("invalid specs simulated %d cells", st.Misses)
	}
}

// TestRecommendCancellation: a canceled context aborts the search
// with ErrCanceled.
func TestRecommendCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := NewSession().Recommend(ctx, RecommendSpec{
		Scenario: Scenario{Workload: "noBG"},
		Probes:   []Probe{{Media: VoIP}},
	}, sweepOpts())
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
}

// TestMaxAggregateSearchOrder pins what a MaxAggregateMOS search
// reports on a six- and a three-candidate axis: the buffers it tried
// in order, the cells it evaluated, and the cells OnProgress saw in
// order. A ternary step's two candidates and the final bracket run as
// one batch each, and must report as the one-candidate-at-a-time
// search did.
func TestMaxAggregateSearchOrder(t *testing.T) {
	probes := []Probe{{Media: VoIP}, {Media: Web}}
	cases := []struct {
		buffers  []int
		tried    []int
		progress string
	}{
		{[]int{4, 8, 16, 64, 128, 256}, []int{8, 128, 16, 64},
			"voip@8 web@8 voip@128 web@128 voip@16 web@16 voip@64 web@64"},
		{[]int{8, 64, 256}, []int{8, 64, 256},
			"voip@8 web@8 voip@64 web@64 voip@256 web@256"},
	}
	for _, c := range cases {
		var seen []string
		o := sweepOpts()
		o.OnProgress = func(p Progress) {
			seen = append(seen, fmt.Sprintf("%s@%d", p.Cell.Probe, p.Cell.Buffer))
		}
		rec, err := NewSession().Recommend(context.Background(), RecommendSpec{
			Scenario: Scenario{Workload: "long-many", Direction: Up}, Probes: probes,
			Buffers: c.buffers, Target: MaxAggregateMOS,
		}, o)
		if err != nil {
			t.Fatal(err)
		}
		if fmt.Sprint(rec.BuffersTried) != fmt.Sprint(c.tried) {
			t.Errorf("%v: tried %v, want %v", c.buffers, rec.BuffersTried, c.tried)
		}
		if rec.CellsEvaluated != len(c.tried)*len(probes) {
			t.Errorf("%v: CellsEvaluated %d, want %d", c.buffers, rec.CellsEvaluated, len(c.tried)*len(probes))
		}
		if got := strings.Join(seen, " "); got != c.progress {
			t.Errorf("%v: progress order\n got:  %s\n want: %s", c.buffers, got, c.progress)
		}
	}
}
