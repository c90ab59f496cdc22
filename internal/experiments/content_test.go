package experiments

import (
	"bytes"
	"encoding/json"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"bufferqoe/internal/media"
	"bufferqoe/internal/telemetry"
	"bufferqoe/internal/testbed"
	"bufferqoe/internal/video"
)

// TestContentCacheBounded plays a VoIP cell, then renders more HD clips
// than the cap holds — what a long-lived server sees — and checks that
// the resident bytes never pass the cap, that eviction is what kept
// them there, that the counters add up, and that an evicted recording
// comes back bit-equal, as does the cell that plays it.
func TestContentCacheBounded(t *testing.T) {
	s := NewSession(2)
	col := telemetry.New()
	s.SetCollector(col)
	if s.content.resident() != 0 {
		t.Fatal("a fresh session's content cache is not cold")
	}
	probe := ProbeSpec{Buffer: 64, Media: "voip"} // noBG: two recordings a cell at Reps 1
	o := tiny()
	o.Seed = 1
	first, err := probeOne(t.Context(), s, probe, o)
	if err != nil {
		t.Fatal(err)
	}
	cs := &CellScratch{content: s.content}
	held := cs.speech(Options{Seed: 99, Collector: col}, 0)
	const clips = 4 // HD clips of 16-19 s: 47 MB against the 32 MiB cap
	for seconds := 16; seconds < 16+clips; seconds++ {
		cs.source(Options{ClipSeconds: seconds, Collector: col}, video.ClipA, video.HD)
		if got := s.content.resident(); got > contentCap {
			t.Fatalf("after a %d s clip the cache holds %d bytes, cap %d", seconds, got, contentCap)
		}
	}
	snap := col.Snapshot()
	if want := uint64(3 + clips); snap.ContentSynthesized != want {
		t.Errorf("synthesized %d pieces, want %d (two recordings a cell, the held one, %d clips)", snap.ContentSynthesized, want, clips)
	}
	s.content.mu.Lock()
	var sum int64
	for _, e := range s.content.entries {
		sum += e.size
	}
	entries := len(s.content.entries)
	s.content.mu.Unlock()
	if snap.ContentEvicted == 0 || snap.ContentBytes != s.content.resident() || sum != s.content.resident() ||
		uint64(entries) != snap.ContentSynthesized-snap.ContentEvicted {
		t.Errorf("evicted %d of %d, %d entries of %d bytes, gauge %d, resident %d: the counters do not add up",
			snap.ContentEvicted, snap.ContentSynthesized, entries, sum, snap.ContentBytes, s.content.resident())
	}

	// Seed 1's recordings are long evicted. Dropping the cell results
	// keeps the content (as it keeps the scratches); asking again
	// re-synthesizes both and reproduces the cell.
	before := s.content.resident()
	s.ResetCache()
	if s.content.resident() != before {
		t.Error("ResetCache touched the content cache")
	}
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
	if &rebuilt[0] == &held[0] {
		t.Fatal("the oldest recording survived more clips than the cap holds")
	}
	if !slices.Equal(rebuilt, held) {
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
	// A mask is one value if it is one backing array.
	identity := func(v any) any {
		if m, ok := v.([]bool); ok {
			return &m[0]
		}
		return v
	}
	for k := range keys {
		for w := 1; w < workers; w++ {
			if identity(got[k][w]) != identity(got[k][0]) {
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
		"qoe_content_evicted_total 0", "qoe_content_resident_bytes 2400",
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

// TestAccessGridContentResident pins what the paper's 81-cell access
// grid (Figs. 7-9) leaves in the content cache: the activity masks of
// the recordings its VoIP cells play — two a (scenario, direction)
// seed at Reps 1, 400 B each — and the one SD clip its video cells
// share. Holding the recordings as PCM made it 9,523,200 bytes.
func TestAccessGridContentResident(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates an 81-cell grid")
	}
	type scen struct {
		name string
		dir  testbed.Direction
	}
	scens := []scen{{"noBG", testbed.DirDown}}
	for _, wl := range []string{"short-few", "short-many", "long-few", "long-many"} {
		scens = append(scens, scen{wl, testbed.DirDown}, scen{wl, testbed.DirUp})
	}
	var ps []ProbeSpec
	for _, sc := range scens {
		for _, buf := range []int{8, 64, 256} {
			for _, m := range []string{"voip", "web", "video"} {
				ps = append(ps, ProbeSpec{Scenario: sc.name, Direction: sc.dir, Buffer: buf, Media: m})
			}
		}
	}
	s := NewSession(2)
	o := Options{Seed: 5, Warmup: time.Second, Reps: 1, ClipSeconds: 1}
	if _, err := s.ProbeBatch(t.Context(), ps, o); err != nil {
		t.Fatal(err)
	}
	masks := int64(len(scens) * 2 * 8 * 50) // 8 s recordings, a byte a 20 ms frame
	const clip = 1 * 25 * 128 * 96          // 1 s of SD at 25 fps
	if got := s.content.resident(); len(ps) != 81 || got != masks+clip {
		t.Errorf("%d cells leave %d bytes resident, want %d (%d of masks, %d of clip)", len(ps), got, masks+clip, masks, clip)
	}
}
