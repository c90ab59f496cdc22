package bufferqoe

import (
	"context"
	"testing"
	"time"
)

// warmGrid is the paper's access grid (Figs. 7-9): noBG plus four
// Table 1 workloads in both directions, three buffers, the three
// paper probes — 81 cells.
func warmGrid() Sweep {
	sw := Sweep{
		Scenarios: []Scenario{{Workload: "noBG"}},
		Buffers:   []int{8, 64, 256},
		Probes:    []Probe{{Media: VoIP}, {Media: Web}, {Media: Video, Profile: "SD"}},
	}
	for _, wl := range []string{"short-few", "short-many", "long-few", "long-many"} {
		for _, dir := range []Direction{Down, Up} {
			sw.Scenarios = append(sw.Scenarios, Scenario{Workload: wl, Direction: dir})
		}
	}
	return sw
}

// warmSession returns a session that already holds every cell of
// warmGrid at short options.
func warmSession(tb testing.TB) (*Session, Sweep, Options) {
	tb.Helper()
	s, sw := NewSession(), warmGrid()
	o := Options{Seed: 5, Warmup: time.Second, Reps: 1, ClipSeconds: 1}
	if _, err := s.Sweep(sw, o); err != nil {
		tb.Fatal(err)
	}
	return s, sw, o
}

// warmRequery is one dashboard re-plot: the whole grid asked again of
// the session that holds it, rendered to JSON.
func warmRequery(tb testing.TB, s *Session, sw Sweep, o Options) {
	g, err := s.SweepCtx(context.Background(), sw, o)
	if err != nil {
		tb.Fatal(err)
	}
	if _, err := g.JSON(); err != nil {
		tb.Fatal(err)
	}
}

// TestWarmSweepAllocs pins what a warm re-query of the 81-cell access
// grid allocates: a cache hit renders its key and looks it up, and
// resolves no workload, builds no closure and normalizes its spec
// once. Counts, not times, so the pin has no timing noise; the budget
// is 1.1x the 157 allocations measured when the pin was last tightened
// (371 while every hit built its cell's closure; the fmt-keyed,
// build-time-resolved, MarshalIndent path allocated 1,037).
func TestWarmSweepAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("fills an 81-cell grid")
	}
	s, sw, o := warmSession(t)
	misses := s.Stats().Misses
	allocs := testing.AllocsPerRun(20, func() { warmRequery(t, s, sw, o) })
	if got := s.Stats().Misses; got != misses {
		t.Fatalf("warm re-queries simulated %d cells", got-misses)
	}
	const measured = 157
	if allocs > 1.1*measured {
		t.Fatalf("warm 81-cell re-query allocates %.0f, budget %.0f (1.1 x %d)", allocs, 1.1*measured, measured)
	}
	t.Logf("warm 81-cell re-query: %.0f allocs", allocs)
}

// BenchmarkWarmSweep times the same warm re-query.
func BenchmarkWarmSweep(b *testing.B) {
	s, sw, o := warmSession(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		warmRequery(b, s, sw, o)
	}
}
