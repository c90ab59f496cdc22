package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"bufferqoe"
)

// encoderReply is what writeJSON writes for a successful reply: the
// reference writeReply is held to byte for byte.
func encoderReply(t *testing.T, r serveResponse) []byte {
	t.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(r); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// replyOf runs writeReply on a recorder.
func replyOf(r serveResponse) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	writeReply(rec, r)
	return rec
}

// TestWriteReplyMatchesEncoder holds writeReply to json.Encoder with
// SetIndent("", "  ") on hand-built replies: a sweep and a sizing
// answer, with the stats' omitempty counters absent and present, and
// strings encoding/json escapes.
func TestWriteReplyMatchesEncoder(t *testing.T) {
	cells := []bufferqoe.SweepCell{
		{Scenario: "long-many/up", Probe: "voip", Buffer: 64, Metric: "mos", Value: 3.125, MOS: 3.125, Rating: "some users dissatisfied", TalkMOS: 2.5, TalkRating: "many users dissatisfied"},
		{Scenario: "a<b>&\"c\"", Probe: "é", Buffer: 8, Metric: "plt_s", Value: 1e-7, MOS: 1e21, Rating: "poor"},
	}
	grid := &bufferqoe.Grid{Scenarios: []string{"long-many/up", "a<b>&\"c\""}, Probes: []string{"voip", "é"}, Buffers: []int{8, 64}, Cells: cells}
	rec := &bufferqoe.Recommendation{
		Buffer: 64, Score: 3.7, Met: true, Cells: cells, BuffersTried: []int{64, 8},
		CellsEvaluated: 4, GridCells: 12,
		Scheme: bufferqoe.Scheme{Name: "stanford (BDP/sqrt(n))", Packets: 20, MaxDelay: 25 * time.Millisecond},
	}
	bare := jsonStats{Workers: 2, CellsRun: 5, CacheHits: 7, CachedCells: 5}
	full := bare
	full.CellsCanceled, full.StoreHits, full.StoreMisses, full.StoreWrites = 1, 2, 3, 4
	for name, r := range map[string]serveResponse{
		"sweep":              {Sweep: grid, Stats: bare, ElapsedS: 0.000123},
		"sweep+counters":     {Sweep: grid, Stats: full, ElapsedS: 12.5},
		"recommend":          {Recommend: rec, Stats: bare, ElapsedS: 4e-7},
		"recommend+counters": {Recommend: rec, Stats: full},
		"empty grid":         {Sweep: &bufferqoe.Grid{}, Stats: jsonStats{StoreWrites: 1}},
		"recommend nil axes": {Recommend: &bufferqoe.Recommendation{}, Stats: jsonStats{CellsCanceled: 9}},
	} {
		got := replyOf(r)
		if got.Code != http.StatusOK || got.Header().Get("Content-Type") != "application/json" {
			t.Fatalf("%s: status %d, content type %q", name, got.Code, got.Header().Get("Content-Type"))
		}
		if want := encoderReply(t, r); !bytes.Equal(got.Body.Bytes(), want) {
			t.Fatalf("%s: reply differs from json.Encoder\n got: %s\nwant: %s", name, got.Body.Bytes(), want)
		}
	}
}

// TestWriteReplyUnencodable: a result JSON cannot represent is a 500
// with an error body, not a 200 with an empty one.
func TestWriteReplyUnencodable(t *testing.T) {
	nan := []bufferqoe.SweepCell{{Scenario: "s", Probe: "voip", Buffer: 8, Metric: "mos", Value: math.NaN(), MOS: 1, Rating: "poor"}}
	for name, r := range map[string]serveResponse{
		"grid cell":       {Sweep: &bufferqoe.Grid{Scenarios: []string{"s"}, Probes: []string{"voip"}, Buffers: []int{8}, Cells: nan}},
		"recommend score": {Recommend: &bufferqoe.Recommendation{Buffer: 8, Score: math.NaN()}},
		"recommend cell":  {Recommend: &bufferqoe.Recommendation{Buffer: 8, Score: 1, Cells: nan}},
	} {
		got := replyOf(r)
		var e map[string]string
		if err := json.Unmarshal(got.Body.Bytes(), &e); err != nil {
			t.Fatalf("%s: body %q is not JSON: %v", name, got.Body.Bytes(), err)
		}
		if got.Code != http.StatusInternalServerError || !strings.Contains(e["error"], "NaN") {
			t.Fatalf("%s: status %d, body %q; want 500 naming the NaN", name, got.Code, got.Body.Bytes())
		}
	}
}

// TestServeRepliesMatchEncoder: every reply to a small body set, cold
// and warm, is byte-equal to json.Encoder with SetIndent("", "  ") on
// the serveResponse it decodes to, so the handlers route every
// success through writeReply unchanged.
func TestServeRepliesMatchEncoder(t *testing.T) {
	srv := newTestServer(t, bufferqoe.NewSession())
	bodies := []struct{ path, body string }{
		{"/sweep", `{"buffers": [16, 64], "probes": ["voip", "web"]}`},
		{"/recommend", `{"buffers": [16, 64], "probes": ["voip"]}`},
		{"/recommend", `{"buffers": [16, 64], "probes": ["voip", "web"], "target": "max-mos"}`},
	}
	for pass := 0; pass < 2; pass++ {
		for _, b := range bodies {
			resp, err := http.Post(srv.URL+b.path, "application/json", strings.NewReader(b.body))
			if err != nil {
				t.Fatal(err)
			}
			raw, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil {
				t.Fatal(err)
			}
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("%s %s: status %d: %s", b.path, b.body, resp.StatusCode, raw)
			}
			var r serveResponse
			if err := json.Unmarshal(raw, &r); err != nil {
				t.Fatal(err)
			}
			if want := encoderReply(t, r); !bytes.Equal(raw, want) {
				t.Fatalf("pass %d %s %s: reply differs from json.Encoder\n got: %s\nwant: %s", pass, b.path, b.body, raw, want)
			}
		}
	}
}

// TestServeWarmAllocs pins what one warm 36-cell /sweep costs the
// handler, shaped like the serve_warm benchmark's large bodies (two
// upstream workloads x six buffers x three probes): decode, the
// session's kept plan, a lookup per cell by its stored key, one reply
// write. Counts, not times, so the pin has no timing noise; the budget
// is 1.1x the 56 allocations measured last (compiling the sweep and
// rendering a key per cell on every request allocated 107; json.Encoder
// writing the reply and a closure built per cell hit, 255; compiling
// the body through CLI strings, 147; rendering each video cell's
// variant lead, 119). The reply takes two: the envelope's buffer, and
// one growth the grid's writer sizes.
func TestServeWarmAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("fills a 36-cell grid")
	}
	session := bufferqoe.NewSession()
	h := newServeHandler(session, bufferqoe.Options{Seed: 5, Warmup: time.Second, Reps: 1, ClipSeconds: 1})
	const body = `{"workloads":["short-few","long-few"],"dir":"up","buffers":[8,16,32,64,128,256]}`
	sweep := func() {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/sweep", strings.NewReader(body)))
		if rec.Code != http.StatusOK {
			t.Fatalf("status %d: %s", rec.Code, rec.Body.Bytes())
		}
	}
	sweep()
	misses := session.Stats().Misses
	allocs := testing.AllocsPerRun(20, sweep)
	if got := session.Stats().Misses; got != misses {
		t.Fatalf("warm requests simulated %d cells", got-misses)
	}
	const measured = 56
	if allocs > 1.1*measured {
		t.Fatalf("warm 36-cell /sweep allocates %.0f, budget %.0f (1.1 x %d)", allocs, 1.1*measured, measured)
	}
	t.Logf("warm 36-cell /sweep: %.0f allocs", allocs)
}
