package bufferqoe

import (
	"context"
	"errors"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"
	"time"

	"bufferqoe/internal/experiments"
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
	// A floor every score meets (NaN: s < NaN is never true) or none
	// can (+Inf), or one below the scale, has no answer.
	for _, th := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), -1} {
		cases = append(cases, struct {
			name string
			spec RecommendSpec
		}{fmt.Sprintf("threshold %g", th), RecommendSpec{Scenario: Scenario{Workload: "noBG"},
			Probes: []Probe{{Media: VoIP}}, Threshold: th}})
	}
	for _, tc := range cases {
		_, err := s.Recommend(ctx, tc.spec, o)
		if err == nil {
			t.Fatalf("%s: expected error", tc.name)
		}
		if strings.HasPrefix(tc.name, "threshold") && !strings.Contains(err.Error(), "Threshold") {
			t.Fatalf("%s: error %q does not name the Threshold field", tc.name, err)
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

// scriptedBatch stands in for the engine: every probe at buffer b
// reads VoIP MOS mos(b) in both directions, and a web page and a
// video clip that score 5, so the VoIP probe alone decides whether a
// candidate meets the floor. Each call appends its spec count to
// sizes.
func scriptedBatch(mos func(buffer int) float64, sizes *[]int) probeBatch {
	return func(_ context.Context, ps []experiments.ProbeSpec, _ experiments.Options) ([]experiments.ProbeValue, error) {
		*sizes = append(*sizes, len(ps))
		out := make([]experiments.ProbeValue, len(ps))
		for i, p := range ps {
			m := mos(p.Buffer)
			out[i] = experiments.ProbeValue{ListenMOS: m, TalkMOS: m, PLT: 400 * time.Millisecond, SSIM: 1}
		}
		return out, nil
	}
}

// progressStep is what OnProgress reports apart from wall time.
type progressStep struct {
	Completed, Total int
	Cell             SweepCell
}

// TestMinBufferSpeculationInvisible: a binary step measures the
// candidates of the next steps beside its own when the pool has idle
// workers, and none of that may show. At every pool width and probe
// count, on a question met at the midpoint, one met only at the
// largest candidate and one never met, the Recommendation, its JSON
// and the OnProgress sequence equal those of the one-worker search.
// The never-met scores peak at 16, the threshold-met child of the
// root: a wide pool measures it, the search never visits it, so the
// unmet fallback must not pick it.
func TestMinBufferSpeculationInvisible(t *testing.T) {
	buffers := []int{8, 16, 32, 64, 128, 256, 512}
	questions := []struct {
		name string
		mos  map[int]float64
	}{
		{"met at the midpoint", map[int]float64{8: 3.0, 16: 3.1, 32: 3.2, 64: 3.6, 128: 3.8, 256: 4.0, 512: 4.1}},
		{"met only at the largest", map[int]float64{8: 3.0, 16: 3.4, 32: 3.1, 64: 3.2, 128: 3.3, 256: 3.2, 512: 3.9}},
		{"never met", map[int]float64{8: 3.0, 16: 3.45, 32: 3.1, 64: 3.2, 128: 3.3, 256: 3.25, 512: 3.15}},
	}
	allProbes := []Probe{{Media: VoIP}, {Media: Web}, {Media: Video, Profile: "SD"}}
	for _, q := range questions {
		for np := 1; np <= len(allProbes); np++ {
			spec := RecommendSpec{
				Scenario: Scenario{Workload: "long-many", Direction: Up},
				Probes:   allProbes[:np], Buffers: buffers,
			}
			ask := func(workers int) (*Recommendation, []byte, []progressStep, []int) {
				var seen []progressStep
				o := sweepOpts()
				o.OnProgress = func(p Progress) {
					seen = append(seen, progressStep{p.Completed, p.Total, p.Cell})
				}
				s := NewSession()
				s.SetParallelism(workers)
				var sizes []int
				rec, err := s.recommend(context.Background(), spec, o, scriptedBatch(func(b int) float64 { return q.mos[b] }, &sizes))
				if err != nil {
					t.Fatal(err)
				}
				js, err := rec.AppendJSON(nil, "")
				if err != nil {
					t.Fatal(err)
				}
				return rec, js, seen, sizes
			}
			want, wantJSON, wantSeen, _ := ask(1)
			for _, w := range []int{2, 4, 8} {
				rec, js, seen, sizes := ask(w)
				where := fmt.Sprintf("%s, %d probes, %d workers (batches of %v specs)", q.name, np, w, sizes)
				if !reflect.DeepEqual(rec, want) {
					t.Errorf("%s: recommendation\n got:  %+v\n want: %+v", where, rec, want)
				}
				if string(js) != string(wantJSON) {
					t.Errorf("%s: JSON\n got:  %s\n want: %s", where, js, wantJSON)
				}
				if !reflect.DeepEqual(seen, wantSeen) {
					t.Errorf("%s: progress\n got:  %v\n want: %v", where, seen, wantSeen)
				}
			}
		}
	}
}

// TestMinBufferBatchShape pins how many candidates a binary step
// measures at once: the step's own and the next ones of the
// bisection tree, breadth first with the threshold-met child first,
// until every worker has a cell: max(1, workers/probes) candidates.
func TestMinBufferBatchShape(t *testing.T) {
	// Scripted: the never-met question on seven candidates visits
	// 64, 256, 512. Two workers and one probe measure {64, 16}, then
	// {256, 128}, then {512}: one wrong guess a step, at most.
	never := func(int) float64 { return 3 }
	cases := []struct {
		workers, probes int
		sizes           []int
	}{
		{1, 1, []int{1, 1, 1}},
		{2, 1, []int{2, 2, 1}},
		{4, 1, []int{4, 1}},
		{8, 1, []int{7}},
		{2, 3, []int{3, 3, 3}},
		{4, 2, []int{4, 4, 2}},
		{8, 3, []int{6, 6, 3}},
	}
	allProbes := []Probe{{Media: VoIP}, {Media: Web}, {Media: Video, Profile: "SD"}}
	for _, c := range cases {
		s := NewSession()
		s.SetParallelism(c.workers)
		var sizes []int
		rec, err := s.recommend(context.Background(), RecommendSpec{
			Scenario: Scenario{Workload: "long-many", Direction: Up},
			Probes:   allProbes[:c.probes], Buffers: []int{8, 16, 32, 64, 128, 256, 512},
		}, sweepOpts(), scriptedBatch(never, &sizes))
		if err != nil {
			t.Fatal(err)
		}
		if fmt.Sprint(sizes) != fmt.Sprint(c.sizes) {
			t.Errorf("%d workers, %d probes: batches of %v specs, want %v", c.workers, c.probes, sizes, c.sizes)
		}
		if fmt.Sprint(rec.BuffersTried) != "[64 256 512]" {
			t.Errorf("%d workers, %d probes: tried %v, want [64 256 512]", c.workers, c.probes, rec.BuffersTried)
		}
	}

	// Engine: on an idle line every candidate meets the floor, so a
	// four-candidate question walks 16 -> 8. With two workers and one
	// probe both steps are one batch and the engine simulates exactly
	// the two cells the answer reports; with three probes each step
	// is its own batch, as a one-worker search runs it.
	for _, c := range []struct {
		probes []Probe
		sizes  string
	}{
		{[]Probe{{Media: VoIP}}, "[2]"},
		{[]Probe{{Media: VoIP}, {Media: Web}, {Media: Video, Profile: "SD"}}, "[3 3]"},
	} {
		s := NewSession()
		s.SetParallelism(2)
		var sizes []int
		counted := func(ctx context.Context, ps []experiments.ProbeSpec, o experiments.Options) ([]experiments.ProbeValue, error) {
			sizes = append(sizes, len(ps))
			return s.inner.ProbeBatch(ctx, ps, o)
		}
		spec := RecommendSpec{Scenario: Scenario{Workload: "noBG"}, Probes: c.probes, Buffers: []int{8, 16, 32, 64}}
		rec, err := s.recommend(context.Background(), spec, sweepOpts(), counted)
		if err != nil {
			t.Fatal(err)
		}
		if got := fmt.Sprint(sizes); got != c.sizes {
			t.Errorf("%d probes on 2 workers: batches of %s specs, want %s", len(c.probes), got, c.sizes)
		}
		if fmt.Sprint(rec.BuffersTried) != "[16 8]" || !rec.Met {
			t.Errorf("%d probes: tried %v, met %v; want [16 8], true", len(c.probes), rec.BuffersTried, rec.Met)
		}
		if st := s.Stats(); st.Misses != uint64(rec.CellsEvaluated) {
			t.Errorf("%d probes: simulated %d cells, evaluated %d", len(c.probes), st.Misses, rec.CellsEvaluated)
		}
		if len(c.probes) == 1 {
			// The one-worker search on a fresh session answers the same.
			one := NewSession()
			one.SetParallelism(1)
			want, err := one.Recommend(context.Background(), spec, sweepOpts())
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(rec, want) {
				t.Errorf("2 workers: %+v\n1 worker:  %+v", rec, want)
			}
		}
	}
}
