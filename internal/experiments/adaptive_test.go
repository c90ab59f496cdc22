package experiments

import (
	"math"
	"testing"

	"bufferqoe/internal/engine"
	"bufferqoe/internal/stats"
	"bufferqoe/internal/telemetry"
)

// TestStopRuleNeverFiresBeforeMinReps is the stopping rule's safety
// property: even on the most stop-eager input imaginable — identical
// scores, so the confidence interval has zero width — done must stay
// false until MinReps observations have accumulated, and must never
// fire on fewer than two (a variance needs two observations).
func TestStopRuleNeverFiresBeforeMinReps(t *testing.T) {
	for min := 0; min <= 6; min++ {
		for _, hw := range []float64{1e-6, 0.1, 1, 100} {
			rule := stopRule{min: min, hw: hw}
			var s stats.Sample
			for n := 1; n <= 10; n++ {
				s.Add(3.5) // zero variance: CI collapses immediately
				got := rule.done(&s)
				want := n >= min && n >= 2
				if got != want {
					t.Fatalf("min=%d hw=%g n=%d: done=%v, want %v", min, hw, n, got, want)
				}
			}
		}
	}
	// A disabled rule (hw == 0) never stops, whatever the sample.
	var s stats.Sample
	for n := 0; n < 50; n++ {
		s.Add(3.5)
		if (stopRule{}).done(&s) {
			t.Fatalf("disabled rule fired at n=%d", n+1)
		}
	}
}

// TestStopRuleRespectsHalfWidth checks the rule against a hand-built
// sample: with spread-out scores the rule must hold out until the CI
// actually tightens below the threshold, and a generous threshold
// must fire as soon as MinReps is met.
func TestStopRuleRespectsHalfWidth(t *testing.T) {
	var s stats.Sample
	s.Add(1.0)
	s.Add(4.0) // std ~2.12, t(1)=12.7: half-width ~19 MOS
	tight := stopRule{min: 2, hw: 0.5}
	if tight.done(&s) {
		t.Fatal("tight rule fired on a 2-sample CI spanning the whole MOS scale")
	}
	loose := stopRule{min: 2, hw: 25}
	if !loose.done(&s) {
		t.Fatal("loose rule did not fire although the CI fits the threshold")
	}
	// Many concordant samples tighten the CI until the strict rule
	// fires too.
	for i := 0; i < 200; i++ {
		s.Add(2.5)
	}
	if !tight.done(&s) {
		t.Fatalf("tight rule never fired; n=%d", s.N())
	}
}

// TestStopTagAndDefaults pins the normalization and the cache-axis
// encoding: disabled options canonicalize to the stop-free tag (so
// every exhaustive spelling shares cells), MinReps defaults to 2 and
// clamps to Reps, and the tag round-trips the parameters compactly.
func TestStopTagAndDefaults(t *testing.T) {
	off := Options{}.withDefaults()
	if off.CIHalfWidth != 0 || off.MinReps != 0 {
		t.Fatalf("disabled options kept stop fields: %+v", off)
	}
	if tag := off.stop().tag(); tag != "" {
		t.Fatalf("disabled options produced stop tag %q", tag)
	}

	on := Options{Reps: 5, CIHalfWidth: 0.25}.withDefaults()
	if on.MinReps != 2 {
		t.Fatalf("MinReps default = %d, want 2", on.MinReps)
	}
	if tag := on.stop().tag(); tag != "ci2:0.25" {
		t.Fatalf("stop tag = %q, want ci2:0.25", tag)
	}

	clamped := Options{Reps: 3, CIHalfWidth: 0.25, MinReps: 9}.withDefaults()
	if clamped.MinReps != 3 {
		t.Fatalf("MinReps = %d, want clamp to Reps=3", clamped.MinReps)
	}
}

// TestStopAxisInKeyNotInSeed is the determinism contract in spec
// form: the stopping rule distinguishes cache/store identities (an
// adaptive result must never answer an exhaustive query) but leaves
// the derived simulation seed untouched, so an adaptive cell's
// repetitions are the exhaustive cell's first n.
func TestStopAxisInKeyNotInSeed(t *testing.T) {
	base := engine.CellSpec{
		Testbed: "access", Scenario: "short-few", Direction: "down",
		Media: "voip", Buffer: 64, Seed: 42, Reps: 5,
	}
	adaptive := base
	adaptive.Stop = "ci2:0.25"
	if base.Key() == adaptive.Key() {
		t.Fatal("Stop axis absent from cache key: adaptive and exhaustive cells collide")
	}
	if engine.DeriveSeed(base) != engine.DeriveSeed(adaptive) {
		t.Fatal("Stop axis perturbed the derived seed: adaptive reps diverge from the exhaustive run's")
	}
	// The stop-free key is byte-identical to what pre-adaptive builds
	// produced (no trailing axis), so existing store entries stay
	// addressable.
	if k := base.Key(); k != base.Canonical().Key() {
		t.Fatalf("canonicalization changed the key: %q", k)
	}
}

// TestAdaptiveFewerRepsWithinHalfWidth is the demonstration sweep of
// the adaptive-replication layer: against an exhaustive fig7b run it
// must spend measurably fewer repetitions (telemetry is the proof)
// while every grid value stays within the configured half-width of
// the exhaustive value.
func TestAdaptiveFewerRepsWithinHalfWidth(t *testing.T) {
	if testing.Short() {
		t.Skip("heavy simulation; skipped in -short (race CI) mode")
	}
	o := tiny()
	o.Reps = 3

	ResetEngineCache()
	exCol := telemetry.New()
	oEx := o
	oEx.Collector = exCol
	rEx, err := Run(t.Context(), "fig7b", oEx)
	if err != nil {
		t.Fatal(err)
	}
	exhaustive := rEx.Grids[0]
	exReps := exCol.Snapshot()

	ResetEngineCache()
	adCol := telemetry.New()
	oAd := o
	oAd.Collector = adCol
	oAd.CIHalfWidth = 0.5
	rAd, err := Run(t.Context(), "fig7b", oAd)
	if err != nil {
		t.Fatal(err)
	}
	adaptive := rAd.Grids[0]
	adReps := adCol.Snapshot()

	if adReps.RepsPerCell.Count != exReps.RepsPerCell.Count {
		t.Fatalf("cell counts differ: adaptive %d, exhaustive %d",
			adReps.RepsPerCell.Count, exReps.RepsPerCell.Count)
	}
	if adReps.RepsPerCell.Sum >= exReps.RepsPerCell.Sum {
		t.Fatalf("adaptive run spent %v total reps, exhaustive %v — no savings",
			adReps.RepsPerCell.Sum, exReps.RepsPerCell.Sum)
	}
	if adReps.CellsStoppedEarly == 0 {
		t.Fatal("no cell stopped early although the rep total shrank")
	}
	if exReps.CellsStoppedEarly != 0 {
		t.Fatalf("exhaustive run reported %d early stops", exReps.CellsStoppedEarly)
	}
	for _, row := range exhaustive.Rows {
		for _, col := range exhaustive.Cols {
			e, a := exhaustive.Get(row, col).Value, adaptive.Get(row, col).Value
			if d := math.Abs(e - a); d > oAd.CIHalfWidth {
				t.Errorf("%s@%s: adaptive %v vs exhaustive %v differ by %v > half-width %v",
					row, col, a, e, d, oAd.CIHalfWidth)
			}
		}
	}
}

// TestAdaptiveDeterministicAcrossSchedules extends the engine's core
// guarantee to early-stopped cells: an adaptive run renders
// bit-identically sequentially, fanned out across workers, and from
// the warm cache — the stop decision is a pure function of the
// completed repetition scores, never of scheduling.
func TestAdaptiveDeterministicAcrossSchedules(t *testing.T) {
	if testing.Short() {
		t.Skip("heavy simulation; skipped in -short (race CI) mode")
	}
	o := tiny()
	o.Reps = 3
	o.CIHalfWidth = 0.5
	defer SetParallelism(0)

	SetParallelism(1)
	ResetEngineCache()
	r, err := Run(t.Context(), "fig7b", o)
	if err != nil {
		t.Fatal(err)
	}
	sequential := r.Render()

	SetParallelism(8)
	ResetEngineCache()
	r, err = Run(t.Context(), "fig7b", o)
	if err != nil {
		t.Fatal(err)
	}
	if parallel := r.Render(); parallel != sequential {
		t.Fatalf("adaptive parallel run differs from sequential:\n--- sequential ---\n%s\n--- parallel ---\n%s",
			sequential, parallel)
	}

	before := EngineStats()
	r, err = Run(t.Context(), "fig7b", o)
	if err != nil {
		t.Fatal(err)
	}
	after := EngineStats()
	if warm := r.Render(); warm != sequential {
		t.Fatalf("adaptive warm-cache run differs from cold run:\n--- cold ---\n%s\n--- warm ---\n%s",
			sequential, warm)
	}
	if after.Misses != before.Misses {
		t.Fatalf("warm-cache run simulated %d new cells", after.Misses-before.Misses)
	}

	// Warm persistent store: a fresh session sharing the store answers
	// every cell from disk with an identical render.
	dir := t.TempDir()
	s1 := NewSession(2)
	if err := s1.OpenStore(dir); err != nil {
		t.Fatal(err)
	}
	r, err = s1.Run(t.Context(), "fig7b", o)
	if err != nil {
		t.Fatal(err)
	}
	cold := r.Render()
	if err := s1.CloseStore(); err != nil {
		t.Fatal(err)
	}
	if cold != sequential {
		t.Fatalf("store-backed run differs from plain run")
	}
	s2 := NewSession(2)
	if err := s2.OpenStore(dir); err != nil {
		t.Fatal(err)
	}
	r, err = s2.Run(t.Context(), "fig7b", o)
	if err != nil {
		t.Fatal(err)
	}
	warmStore := r.Render()
	st := s2.EngineStats()
	if err := s2.CloseStore(); err != nil {
		t.Fatal(err)
	}
	if warmStore != sequential {
		t.Fatalf("warm-store run differs:\n--- cold ---\n%s\n--- warm store ---\n%s",
			sequential, warmStore)
	}
	if st.Misses != 0 {
		t.Fatalf("warm-store run simulated %d cells", st.Misses)
	}
	if st.StoreHits == 0 {
		t.Fatal("warm-store run never consulted the store")
	}
}
