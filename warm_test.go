package bufferqoe

import (
	"context"
	"runtime"
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
// grid allocates: the session's kept plan answers it, so the call
// renders no label, spec or key and looks each cell up by the key its
// plan stored; what is left is the grid, the completion channel and
// the JSON. Counts, not times, so the pin has no timing noise; the
// budget is 1.1x the 14 allocations measured when the pin was last
// tightened (130 while every call compiled its sweep and rendered 81
// keys; 131 while writing the JSON built its indentation at run time;
// 157 while every video cell rendered its variant lead; 371 while
// every hit built its cell's closure; the fmt-keyed,
// build-time-resolved, MarshalIndent path allocated 1,037). The bytes
// are pinned the same way: 1.1x the 42,864 B measured (96,040 B while
// every call compiled its sweep; 116,392 B while every probe cell held
// a copy of its spec).
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
	const measured = 14
	if allocs > 1.1*measured {
		t.Fatalf("warm 81-cell re-query allocates %.0f, budget %.0f (1.1 x %d)", allocs, 1.1*measured, measured)
	}
	bytes := bytesPerRun(20, func() { warmRequery(t, s, sw, o) })
	const measuredBytes = 42864
	if bytes > 1.1*measuredBytes {
		t.Fatalf("warm 81-cell re-query allocates %.0f B, budget %.0f (1.1 x %d)", bytes, 1.1*measuredBytes, measuredBytes)
	}
	t.Logf("warm 81-cell re-query: %.0f allocs, %.0f B", allocs, bytes)
}

// bytesPerRun is testing.AllocsPerRun for bytes: the average heap
// bytes one call of f allocates, after a warm-up call.
func bytesPerRun(runs int, f func()) float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(runs)
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

// warmCustomGrid is the off-paper grid: a four-station WiFi last hop
// under five AQMs with CUBIC and BBR, long-few downstream, one buffer,
// the three paper probes — 30 cells on a custom link, where every
// scenario renders a link tag, a variant tag and a label.
func warmCustomGrid() Sweep {
	sw := Sweep{
		Buffers: []int{64},
		Probes:  []Probe{{Media: VoIP}, {Media: Web}, {Media: Video, Profile: "SD"}},
	}
	link := WifiLink(4)
	for _, q := range []AQM{CoDel, FQCoDel, PIE, RED, ARED} {
		for _, cc := range []CC{Cubic, BBR} {
			sw.Scenarios = append(sw.Scenarios, Scenario{
				Link: &link, Workload: "long-few", Direction: Down, AQM: q, CC: cc,
			})
		}
	}
	return sw
}

// warmCustomSession returns a session that already holds every cell
// of warmCustomGrid at short options.
func warmCustomSession(tb testing.TB) (*Session, Sweep, Options) {
	tb.Helper()
	s, sw := NewSession(), warmCustomGrid()
	o := Options{Seed: 5, Duration: 2 * time.Second, Warmup: 500 * time.Millisecond, Reps: 1, ClipSeconds: 1}
	if _, err := s.Sweep(sw, o); err != nil {
		tb.Fatal(err)
	}
	return s, sw, o
}

// TestWarmCustomSweepAllocs pins the same for the off-paper grid,
// whose scenarios carry a custom link, an AQM and a congestion control:
// the kept plan holds every scenario's label, link tag and variant tag,
// so a warm call renders none. The budget is 1.1x the 15 allocations
// measured (106 while every call rendered each scenario's label and
// tags once; 107 while writing the JSON built its indentation at run
// time; 583 while every cell rendered its tags with fmt).
func TestWarmCustomSweepAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("fills a 30-cell grid")
	}
	s, sw, o := warmCustomSession(t)
	misses := s.Stats().Misses
	allocs := testing.AllocsPerRun(20, func() { warmRequery(t, s, sw, o) })
	if got := s.Stats().Misses; got != misses {
		t.Fatalf("warm re-queries simulated %d cells", got-misses)
	}
	const measured = 15
	if allocs > 1.1*measured {
		t.Fatalf("warm 30-cell custom re-query allocates %.0f, budget %.0f (1.1 x %d)", allocs, 1.1*measured, measured)
	}
	t.Logf("warm 30-cell custom re-query: %.0f allocs", allocs)
}

// BenchmarkWarmCustomSweep times the same warm re-query.
func BenchmarkWarmCustomSweep(b *testing.B) {
	s, sw, o := warmCustomSession(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		warmRequery(b, s, sw, o)
	}
}
