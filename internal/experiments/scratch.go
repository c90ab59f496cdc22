package experiments

import (
	"bufferqoe/internal/engine"
	"bufferqoe/internal/media"
	"bufferqoe/internal/stats"
	"bufferqoe/internal/telemetry"
	"bufferqoe/internal/testbed"
	"bufferqoe/internal/video"
	"bufferqoe/internal/voip"
)

// CellScratch is the per-worker reusable working memory of the cell
// runners. What is mutable is per worker and behind Reset: the
// testbed's bottleneck monitors and carcasses, the rep-loop arenas,
// the cell's content tally. Reference media — speech recordings (as
// activity masks) and rendered clips — is content, not working
// memory: it lives once per session in the shared, bounded
// contentCache the scratch points at (see content.go), so no worker
// synthesizes what another already has and no worker pins what the
// session has evicted.
type CellScratch struct {
	// Testbed holds the queue/link monitors a testbed build would
	// otherwise allocate per cell, plus the cached testbed carcasses
	// NewAccess/NewBackbone reset in place between cells.
	Testbed testbed.Scratch

	// repSamples is a fixed arena of per-repetition accumulators for
	// the cell rep loops (MOS/SSIM/PLT per repetition). One cell runs
	// on a scratch at a time and no rep loop needs more than four, so
	// the backing arrays amortize across the whole sweep. Acquire via
	// sample(i), which resets before handing out.
	repSamples [4]stats.Sample

	// content is the session's reference-media cache; use tallies what
	// the current cell asked of it.
	content *contentCache
	use     telemetry.ContentUse
}

// Reset implements engine.Scratch: clear the per-cell state. The
// session's content cache is not the scratch's to clear.
func (cs *CellScratch) Reset() {
	cs.Testbed.Reset()
	cs.use = telemetry.ContentUse{}
}

// scratchOf narrows the engine's scratch handle; a nil result (no
// scratch configured, e.g. a cell function invoked directly in tests)
// makes every helper below fall back to fresh allocations.
func scratchOf(scr engine.Scratch) *CellScratch {
	cs, _ := scr.(*CellScratch)
	return cs
}

// sample returns the i-th arena accumulator, reset and ready to fill;
// a nil scratch (direct cell invocation in tests) falls back to a
// fresh allocation. The arena hands out at most len(repSamples)
// distinct accumulators per cell.
func (cs *CellScratch) sample(i int) *stats.Sample {
	if cs == nil {
		return &stats.Sample{}
	}
	s := &cs.repSamples[i]
	s.Reset()
	return s
}

// tb returns the testbed scratch to embed in a Config, or nil.
func (cs *CellScratch) tb() *testbed.Scratch {
	if cs == nil {
		return nil
	}
	return &cs.Testbed
}

// speech returns the activity mask of recording i (mod the set size)
// of the reference speech set of the cell's seed. Callers ask when the
// call that plays the recording starts, so recordings no repetition
// reaches are never synthesized.
func (cs *CellScratch) speech(o Options, i int) []bool {
	i %= media.LibrarySize
	if cs == nil {
		return voip.Activity(o.Seed, i)
	}
	return cs.content.get(contentKey{seed: o.Seed, index: i}, o.Collector, &cs.use).([]bool)
}

// source returns the rendered video source for a clip/profile at the
// run's clip length.
func (cs *CellScratch) source(o Options, clip video.Clip, p video.Profile) *video.Source {
	if cs == nil {
		return video.NewSource(clip, p, o.ClipSeconds)
	}
	k := contentKey{video: true, clip: clip, profile: p, seconds: o.ClipSeconds}
	return cs.content.get(k, o.Collector, &cs.use).(*video.Source)
}
