package experiments

import (
	"testing"

	"bufferqoe/internal/testbed"
)

// TestDeterminismAcrossSchedules is the engine's core guarantee made
// end-to-end: a representative experiment renders bit-identically
// when its cells run sequentially, fanned out across workers, and
// again from the warm cache.
func TestDeterminismAcrossSchedules(t *testing.T) {
	if testing.Short() {
		t.Skip("heavy simulation; skipped in -short (race CI) mode")
	}
	o := tiny()
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
	parallel := r.Render()

	if sequential != parallel {
		t.Fatalf("parallel run differs from sequential:\n--- sequential ---\n%s\n--- parallel ---\n%s",
			sequential, parallel)
	}

	// Third run, warm cache: every cell a hit, output unchanged.
	before := EngineStats()
	r, err = Run(t.Context(), "fig7b", o)
	if err != nil {
		t.Fatal(err)
	}
	after := EngineStats()
	if warm := r.Render(); warm != sequential {
		t.Fatalf("warm-cache run differs from cold run:\n--- cold ---\n%s\n--- warm ---\n%s",
			sequential, warm)
	}
	if after.Misses != before.Misses {
		t.Fatalf("warm-cache run simulated %d new cells", after.Misses-before.Misses)
	}
	if after.Hits <= before.Hits {
		t.Fatal("warm-cache run recorded no cache hits")
	}
}

// TestCrossExperimentCellSharing asserts the cache works across
// experiment boundaries: the three Figure 1 panels share one CDN
// population cell, so running fig1b after fig1a must simulate
// nothing new.
func TestCrossExperimentCellSharing(t *testing.T) {
	o := tiny()
	ResetEngineCache()
	if _, err := Run(t.Context(), "fig1a", o); err != nil {
		t.Fatal(err)
	}
	mid := EngineStats()
	if mid.Misses == 0 {
		t.Fatal("fig1a simulated no cells")
	}
	if _, err := Run(t.Context(), "fig1b", o); err != nil {
		t.Fatal(err)
	}
	after := EngineStats()
	if after.Misses != mid.Misses {
		t.Fatalf("fig1b re-simulated %d cells fig1a already computed", after.Misses-mid.Misses)
	}
	if after.Hits <= mid.Hits {
		t.Fatal("fig1b recorded no cache hits")
	}
}

// TestProbeMatchesGrid asserts that a probe of a configuration an
// experiment grid visited answers from the grid's cell — probes and
// grids submit the same canonical cell specs.
func TestProbeMatchesGrid(t *testing.T) {
	if testing.Short() {
		t.Skip("heavy simulation; skipped in -short (race CI) mode")
	}
	o := tiny()
	ResetEngineCache()
	r, err := Run(t.Context(), "fig7b", o)
	if err != nil {
		t.Fatal(err)
	}
	grid := r.Grids[0].Get("user-talks/long-many", "256").Value
	before := EngineStats()
	v, err := probeOne(t.Context(), Default, ProbeSpec{Scenario: "long-many", Direction: testbed.DirUp, Buffer: 256, Media: "voip"}, o)
	if err != nil {
		t.Fatal(err)
	}
	if v.TalkMOS != grid {
		t.Fatalf("probe talk MOS %v != grid cell %v", v.TalkMOS, grid)
	}
	if after := EngineStats(); after.Misses != before.Misses {
		t.Fatalf("probe re-simulated the grid's cell: %+v -> %+v", before, after)
	}
}
