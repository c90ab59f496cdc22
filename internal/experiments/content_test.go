package experiments

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"sync"
	"testing"

	"bufferqoe/internal/media"
	"bufferqoe/internal/telemetry"
	"bufferqoe/internal/video"
)

func samePCM(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// TestContentCacheBounded sweeps VoIP cells under more distinct seeds
// than the cap holds recordings for — what a long-lived server sees —
// and checks that the resident bytes never pass the cap, that eviction
// is what kept them there, and that an evicted recording comes back
// bit-equal, as does the cell that plays it.
func TestContentCacheBounded(t *testing.T) {
	s := NewSession(2)
	col := telemetry.New()
	s.SetCollector(col)
	if s.content.resident() != 0 {
		t.Fatal("a fresh session's content cache is not cold")
	}
	cs := &CellScratch{content: s.content}
	held := cs.speech(Options{Seed: 99, Collector: col}, 0)
	probe := ProbeSpec{Buffer: 64, Media: "voip"} // noBG: two recordings a cell at Reps 1
	o := tiny()
	const recordingBytes = 8 * 8 * media.SampleRate
	seeds := contentCap/(2*recordingBytes) + 8
	var first ProbeValue
	for seed := 1; seed <= seeds; seed++ {
		o.Seed = uint64(seed)
		v, err := probeOne(t.Context(), s, probe, o)
		if err != nil {
			t.Fatal(err)
		}
		if seed == 1 {
			first = v
		}
		if got := s.content.resident(); got > contentCap {
			t.Fatalf("after %d seeds the cache holds %d bytes, cap %d", seed, got, contentCap)
		}
	}
	snap := col.Snapshot()
	if want := uint64(1 + 2*seeds); snap.ContentSynthesized != want {
		t.Errorf("synthesized %d recordings, want %d (two per cell and the held one)", snap.ContentSynthesized, want)
	}
	if snap.ContentEvicted == 0 || snap.ContentBytes != s.content.resident() ||
		snap.ContentBytes != int64(snap.ContentSynthesized-snap.ContentEvicted)*recordingBytes {
		t.Errorf("evicted %d of %d, gauge %d, resident %d: the counters do not add up",
			snap.ContentEvicted, snap.ContentSynthesized, snap.ContentBytes, s.content.resident())
	}

	// Seed 1's recordings are long evicted. Dropping the cell results
	// keeps the content (as it keeps the scratches); asking again
	// re-synthesizes both and reproduces the cell.
	before := s.content.resident()
	s.ResetCache()
	if s.content.resident() != before {
		t.Error("ResetCache touched the content cache")
	}
	o.Seed = 1
	again, err := probeOne(t.Context(), s, probe, o)
	if err != nil {
		t.Fatal(err)
	}
	if again != first {
		t.Errorf("cell replayed from re-synthesized recordings = %+v, first time %+v", again, first)
	}
	if got := col.Snapshot().ContentSynthesized; got != snap.ContentSynthesized+2 {
		t.Errorf("replaying an evicted seed synthesized %d recordings, want 2", got-snap.ContentSynthesized)
	}
	rebuilt := cs.speech(Options{Seed: 99}, media.LibrarySize) // the index wraps
	if rebuilt == held {
		t.Fatal("the oldest recording survived a sweep larger than the cap")
	}
	if !samePCM(rebuilt.PCM, held.PCM) {
		t.Error("a recording rebuilt after eviction differs from the evicted one")
	}
}

// TestContentCacheSingleFlight: workers asking for one recording (and
// one clip) at once synthesize it once and all get that one value.
func TestContentCacheSingleFlight(t *testing.T) {
	c := newContentCache()
	col := telemetry.New()
	keys := []contentKey{
		{seed: 5, index: 3},
		{video: true, clip: video.ClipC, profile: video.SD, seconds: 1},
	}
	const workers = 8
	got := make([][workers]any, len(keys))
	uses := make([]telemetry.ContentUse, workers)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			<-start
			for k, key := range keys {
				got[k][w] = c.get(key, col, &uses[w])
			}
		}(w)
	}
	close(start)
	wg.Wait()
	for k := range keys {
		for w := 1; w < workers; w++ {
			if got[k][w] != got[k][0] {
				t.Fatalf("key %d: worker %d got a different value than worker 0", k, w)
			}
		}
	}
	snap := col.Snapshot()
	if snap.ContentSynthesized != uint64(len(keys)) || snap.ContentHits != uint64(len(keys)*(workers-1)) {
		t.Errorf("synthesized %d, hits %d; want %d and %d",
			snap.ContentSynthesized, snap.ContentHits, len(keys), len(keys)*(workers-1))
	}
	var sum telemetry.ContentUse
	for _, u := range uses {
		sum.Hits += u.Hits
		sum.Synthesized += u.Synthesized
	}
	if sum.Synthesized != len(keys) || sum.Hits != len(keys)*(workers-1) {
		t.Errorf("per-cell tallies add to %+v", sum)
	}
}

// TestContentIsFetchedWhenPlayed: a three-call duplex cell synthesizes
// the six recordings it plays, not the set of twenty; a cell paired
// with it under common random numbers finds them; both say so in
// their trace records and in /metrics.
func TestContentIsFetchedWhenPlayed(t *testing.T) {
	s := NewSession(1)
	col := telemetry.New()
	var trace bytes.Buffer
	col.TraceTo(&trace)
	s.SetCollector(col)
	o := tiny()
	o.Reps = 3
	for _, buf := range []int{64, 256} { // buffer is not a seed axis
		if _, err := probeOne(t.Context(), s, ProbeSpec{Buffer: buf, Media: "voip"}, o); err != nil {
			t.Fatal(err)
		}
	}
	lines := strings.Split(strings.TrimSpace(trace.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("%d trace records, want 2", len(lines))
	}
	for i, want := range []telemetry.TraceEvent{{ContentSynth: 6}, {ContentHits: 6}} {
		var ev telemetry.TraceEvent
		if err := json.Unmarshal([]byte(lines[i]), &ev); err != nil {
			t.Fatal(err)
		}
		if ev.ContentSynth != want.ContentSynth || ev.ContentHits != want.ContentHits || (ev.ContentMS > 0) != (want.ContentSynth > 0) {
			t.Errorf("cell %d: content_synth %d content_hits %d content_ms %g, want %d and %d",
				i, ev.ContentSynth, ev.ContentHits, ev.ContentMS, want.ContentSynth, want.ContentHits)
		}
	}
	var prom bytes.Buffer
	if err := col.WritePrometheus(&prom); err != nil {
		t.Fatal(err)
	}
	for _, line := range []string{
		"qoe_content_hits_total 6", "qoe_content_synthesized_total 6",
		"qoe_content_evicted_total 0", "qoe_content_resident_bytes 3072000",
	} {
		if !strings.Contains(prom.String(), line+"\n") {
			t.Errorf("/metrics lacks %q", line)
		}
	}
}

// TestContentHitDoesNotAllocate: a resident recording costs
// no allocation to find, collector or not.
func TestContentHitDoesNotAllocate(t *testing.T) {
	cs := &CellScratch{content: newContentCache()}
	o := Options{Seed: 3}
	cs.speech(o, 0)
	if n := testing.AllocsPerRun(100, func() { cs.speech(o, 0) }); n != 0 {
		t.Errorf("a content hit allocates %v times", n)
	}
	o.Collector = telemetry.New()
	if n := testing.AllocsPerRun(100, func() { cs.speech(o, 0) }); n != 0 {
		t.Errorf("a content hit with a collector allocates %v times", n)
	}
}
