package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"bufferqoe"
)

// serveOpts are the run options every server test shares: small enough
// that a cell simulates in well under a second.
func serveOpts() bufferqoe.Options {
	return bufferqoe.Options{
		Seed: 5, Duration: 4 * time.Second, Warmup: 2 * time.Second,
		Reps: 1, ClipSeconds: 1, CDNFlows: 20000,
	}
}

func newTestServer(t *testing.T, session *bufferqoe.Session) *httptest.Server {
	t.Helper()
	srv := httptest.NewServer(newServeHandler(session, serveOpts()))
	t.Cleanup(srv.Close)
	return srv
}

// post sends body to the endpoint and decodes the JSON response.
func post(t *testing.T, url, body string, into any) int {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if into != nil {
		if err := json.Unmarshal(raw, into); err != nil {
			t.Fatalf("bad JSON (%v): %s", err, raw)
		}
	}
	return resp.StatusCode
}

func TestServeHealthz(t *testing.T) {
	srv := newTestServer(t, bufferqoe.NewSession())
	resp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var h healthResponse
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || h.Status != "ok" {
		t.Fatalf("healthz = %d %+v", resp.StatusCode, h)
	}
}

func TestServeSweep(t *testing.T) {
	srv := newTestServer(t, bufferqoe.NewSession())
	var r serveResponse
	code := post(t, srv.URL+"/sweep",
		`{"buffers": [16, 64], "probes": ["voip"]}`, &r)
	if code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if r.Sweep == nil || len(r.Sweep.Cells) != 2 {
		t.Fatalf("sweep response = %+v", r)
	}
	if r.Stats.CellsRun != 2 {
		t.Fatalf("stats = %+v, want 2 simulated cells", r.Stats)
	}
	// Identical request: every cell answered from the shared cache.
	var r2 serveResponse
	post(t, srv.URL+"/sweep", `{"buffers": [16, 64], "probes": ["voip"]}`, &r2)
	if r2.Stats.CellsRun != 2 || r2.Stats.CacheHits != 2 {
		t.Fatalf("repeat stats = %+v, want warm hits", r2.Stats)
	}
}

// TestServeWifiSweep: the wireless axes travel the request body like
// every other axis, and are refused the way the CLI refuses them.
func TestServeWifiSweep(t *testing.T) {
	srv := newTestServer(t, bufferqoe.NewSession())
	var r serveResponse
	code := post(t, srv.URL+"/sweep",
		`{"link": "wifi", "stations": 2, "cc": "bbr", "buffers": [16], "probes": ["voip"]}`, &r)
	if code != http.StatusOK {
		t.Fatalf("status %d: %+v", code, r)
	}
	if r.Sweep == nil || len(r.Sweep.Cells) != 1 {
		t.Fatalf("wifi sweep response = %+v", r)
	}
	if !strings.Contains(r.Sweep.Cells[0].Scenario, "wifi2") ||
		!strings.Contains(r.Sweep.Cells[0].Scenario, "bbr") {
		t.Fatalf("wifi cell labeled %q", r.Sweep.Cells[0].Scenario)
	}
	var bad serveResponse
	if code := post(t, srv.URL+"/sweep",
		`{"stations": 4, "buffers": [16], "probes": ["voip"]}`, &bad); code != http.StatusBadRequest {
		t.Fatalf("orphan stations: status %d", code)
	}
}

func TestServeRecommend(t *testing.T) {
	srv := newTestServer(t, bufferqoe.NewSession())
	var r serveResponse
	code := post(t, srv.URL+"/recommend",
		`{"buffers": [8, 64], "probes": ["web"]}`, &r)
	if code != http.StatusOK {
		t.Fatalf("status %d: %+v", code, r)
	}
	if r.Recommend == nil || r.Recommend.Buffer == 0 {
		t.Fatalf("recommend response = %+v", r)
	}
}

func TestServeBadRequests(t *testing.T) {
	srv := newTestServer(t, bufferqoe.NewSession())
	cases := []struct {
		name, path, body string
		want             int
		names            string // what the error must mention
	}{
		{"bad json", "/sweep", `{"buffers": `, http.StatusBadRequest, ""},
		{"unknown field", "/sweep", `{"bufffers": [16]}`, http.StatusBadRequest, ""},
		{"trailing garbage", "/sweep", `{"buffers":[8]} trailing garbage`, http.StatusBadRequest, ""},
		{"second object", "/recommend", `{"buffers":[8]} {"buffers":[16]}`, http.StatusBadRequest, ""},
		{"unknown workload", "/sweep", `{"workloads": ["nonsense"]}`, http.StatusBadRequest, ""},
		{"bad target", "/recommend", `{"target": "fastest"}`, http.StatusBadRequest, ""},
		{"multi-workload recommend", "/recommend", `{"workloads": ["noBG", "long-many"]}`, http.StatusBadRequest, ""},
		// A duration that does not fit time.Duration is refused by
		// name, not wrapped to a negative one.
		{"duration overflow", "/sweep", `{"duration_s": 1e10, "buffers": [8], "probes": ["voip"]}`, http.StatusBadRequest, "duration_s"},
		{"warmup overflow", "/sweep", `{"warmup_s": 1e10, "buffers": [8], "probes": ["voip"]}`, http.StatusBadRequest, "warmup_s"},
		{"jitter overflow", "/sweep", `{"jitter_ms": 1e13, "buffers": [8], "probes": ["voip"]}`, http.StatusBadRequest, "jitter_ms"},
		{"client delay overflow", "/recommend", `{"client_delay_ms": -1e13, "buffers": [8], "probes": ["voip"]}`, http.StatusBadRequest, "client_delay_ms"},
		{"downrate below floor", "/sweep", `{"downrate": 1e-300, "buffers": [8], "probes": ["voip"]}`, http.StatusBadRequest, "DownRate"},
		// No rep could finish inside a cell's horizon.
		{"warmup past the horizon", "/sweep", `{"warmup_s": 1860, "buffers": [8], "probes": ["voip"]}`, http.StatusBadRequest, "Warmup"},
		{"recommend warmup past the horizon", "/recommend", `{"warmup_s": 1860, "buffers": [8], "probes": ["web"]}`, http.StatusBadRequest, "Warmup"},
		// A floor below the scale, or one JSON cannot hold, has no
		// answer; JSON has no NaN to send.
		{"negative threshold", "/recommend", `{"threshold": -1, "buffers": [8], "probes": ["voip"]}`, http.StatusBadRequest, "Threshold"},
		{"threshold overflow", "/recommend", `{"threshold": 1e999, "buffers": [8], "probes": ["voip"]}`, http.StatusBadRequest, "threshold"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var e map[string]string
			if code := post(t, srv.URL+tc.path, tc.body, &e); code != tc.want {
				t.Fatalf("status %d, want %d (%v)", code, tc.want, e)
			}
			if e["error"] == "" || !strings.Contains(e["error"], tc.names) {
				t.Fatalf("error %q, want one naming %q", e["error"], tc.names)
			}
		})
	}
	resp, err := http.Get(srv.URL + "/sweep")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed || resp.Header.Get("Allow") != "POST" {
		t.Fatalf("GET /sweep = %d, Allow=%q", resp.StatusCode, resp.Header.Get("Allow"))
	}
}

// TestServeConcurrentRecommend is the load acceptance test: at least a
// thousand concurrent Recommend requests against one server, all
// answered correctly, no goroutine leaks. The requests are identical,
// so the engine coalesces them onto one set of cells — the service's
// designed-for hot path.
func TestServeConcurrentRecommend(t *testing.T) {
	if testing.Short() {
		t.Skip("load test skipped with -short")
	}
	session := bufferqoe.NewSession()
	srv := newTestServer(t, session)
	client := srv.Client()
	client.Transport.(*http.Transport).MaxIdleConnsPerHost = 256

	// Warm the cells once so the concurrent wave measures the service,
	// not a thousand waiters on first-compute.
	var warm serveResponse
	if code := post(t, srv.URL+"/recommend", `{"buffers": [8, 64], "probes": ["voip"]}`, &warm); code != http.StatusOK {
		t.Fatalf("warmup status %d", code)
	}

	const clients = 1000
	var wg sync.WaitGroup
	errs := make(chan string, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := client.Post(srv.URL+"/recommend", "application/json",
				strings.NewReader(`{"buffers": [8, 64], "probes": ["voip"]}`))
			if err != nil {
				errs <- err.Error()
				return
			}
			defer resp.Body.Close()
			var r serveResponse
			if err := json.NewDecoder(resp.Body).Decode(&r); err != nil {
				errs <- "decode: " + err.Error()
				return
			}
			if resp.StatusCode != http.StatusOK || r.Recommend == nil {
				errs <- fmt.Sprintf("status %d, recommend %v", resp.StatusCode, r.Recommend)
				return
			}
			if r.Recommend.Buffer != warm.Recommend.Buffer {
				errs <- fmt.Sprintf("buffer %d, want %d", r.Recommend.Buffer, warm.Recommend.Buffer)
			}
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
	// Every request after warmup must have been answered from cache.
	st := session.Stats()
	if st.Hits == 0 {
		t.Fatalf("no cache hits across %d requests: %+v", clients, st)
	}
	srv.Close()
	waitForServeGoroutines(t)
}

// waitForServeGoroutines fails the test if the goroutine count does
// not settle back near the baseline after the server closes.
func waitForServeGoroutines(t *testing.T) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		runtime.GC()
		n := runtime.NumGoroutine()
		// The test binary's own baseline is single digits; idle HTTP
		// keep-alive reapers drain within seconds.
		if n <= 20 {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("%d goroutines still running:\n%s", n, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(100 * time.Millisecond)
	}
}

// TestServeWarmStoreRestart: a restarted server sharing the store
// directory answers a previously-run sweep entirely from disk.
func TestServeWarmStoreRestart(t *testing.T) {
	dir := t.TempDir()
	body := `{"buffers": [16], "probes": ["voip", "web"]}`

	s1 := bufferqoe.NewSession()
	if err := s1.OpenStore(dir); err != nil {
		t.Fatal(err)
	}
	srv1 := newTestServer(t, s1)
	var cold serveResponse
	if code := post(t, srv1.URL+"/sweep", body, &cold); code != http.StatusOK {
		t.Fatalf("cold status %d", code)
	}
	if cold.Stats.CellsRun == 0 {
		t.Fatalf("cold stats = %+v", cold.Stats)
	}
	srv1.Close()
	if err := s1.CloseStore(); err != nil {
		t.Fatal(err)
	}

	// "Restart": a fresh session and handler over the same directory.
	s2 := bufferqoe.NewSession()
	if err := s2.OpenStore(dir); err != nil {
		t.Fatal(err)
	}
	defer s2.CloseStore()
	srv2 := newTestServer(t, s2)
	var warmResp serveResponse
	if code := post(t, srv2.URL+"/sweep", body, &warmResp); code != http.StatusOK {
		t.Fatalf("warm status %d", code)
	}
	if warmResp.Stats.CellsRun != 0 || warmResp.Stats.StoreHits == 0 {
		t.Fatalf("restarted server simulated cells: %+v", warmResp.Stats)
	}
	coldJSON, _ := json.Marshal(cold.Sweep)
	warmJSON, _ := json.Marshal(warmResp.Sweep)
	if !bytes.Equal(coldJSON, warmJSON) {
		t.Fatal("warm-store sweep differs from cold sweep")
	}
}

// TestServeExclusiveFlags: -serve refuses to combine with one-shot
// modes.
func TestServeExclusiveFlags(t *testing.T) {
	_, errOut, code := runCLI(t, "-serve", "localhost:0", "-sweep")
	if code != 2 || !strings.Contains(errOut, "-serve") {
		t.Fatalf("code=%d stderr=%q", code, errOut)
	}
}

// TestWriteRunErrorStatus: a canceled run is a 503, a panicking cell
// the server's 500, and every other failure the request's 400; each
// with a JSON error body.
func TestWriteRunErrorStatus(t *testing.T) {
	for _, tc := range []struct {
		err  error
		want int
	}{
		{bufferqoe.ErrCanceled, http.StatusServiceUnavailable},
		{fmt.Errorf("%w: boom\n\ngoroutine 7 [running]:", bufferqoe.ErrCellPanicked), http.StatusInternalServerError},
		{errors.New("bufferqoe: unknown workload"), http.StatusBadRequest},
	} {
		rec := httptest.NewRecorder()
		writeRunError(rec, tc.err)
		var e map[string]string
		if rec.Code != tc.want || json.Unmarshal(rec.Body.Bytes(), &e) != nil || e["error"] == "" ||
			strings.Contains(e["error"], "goroutine") {
			t.Fatalf("%v: status %d, body %s; want %d and an error body without a stack", tc.err, rec.Code, rec.Body.Bytes(), tc.want)
		}
	}
}

// FuzzServeBody: whatever a client posts, /sweep and /recommend answer
// a 400 (the body does not decode or compile) or a 503 (it compiled,
// and the request's context, canceled up front here, abandoned its
// cells) with a JSON error body: never a panic, never a simulated
// cell. Seeded with the bodies the request tests use.
func FuzzServeBody(f *testing.F) {
	for _, body := range []string{
		`{"buffers": `, `{"bufffers": [16]}`, `{"buffers":[8]} trailing garbage`,
		`{"buffers":[8]} {"buffers":[16]}`, `{"workloads": ["nonsense"]}`, `{"target": "fastest"}`,
		`{"workloads": ["noBG", "long-many"]}`,
		`{"duration_s": 1e10, "buffers": [8], "probes": ["voip"]}`,
		`{"warmup_s": 1e10, "buffers": [8], "probes": ["voip"]}`,
		`{"jitter_ms": 1e13, "buffers": [8], "probes": ["voip"]}`,
		`{"client_delay_ms": -1e13, "buffers": [8], "probes": ["voip"]}`,
		`{}`, `{"workloads": [], "probes": []}`,
		`{"network": "backbone", "workloads": ["long"], "buffers": [28, 749]}`,
		`{"workloads": ["short-few", "long-many"], "dir": "up", "probes": ["voip", "video:HD"]}`,
		`{"mix": "up:long=2;down:web=16x3/1.5s", "bufup": 256}`,
		`{"aqm": "fq-codel", "cc": "bbr", "jitter_ms": 1234.567891}`,
		`{"uprate": 1e9, "downrate": 2.5e8, "client_delay_ms": 2, "server_delay_ms": 10.5, "reorder": 0.01}`,
		`{"link": "wifi", "stations": 8, "wifi_retry": 3, "wifi_agg": 4}`,
		`{"workloads": ["long-many"], "dir": "bidir", "target": "max-mos", "threshold": 4}`,
		`{"target": "min-mos", "threshold": 3}`,
	} {
		f.Add(body)
	}
	session := bufferqoe.NewSession()
	h := newServeHandler(session, serveOpts())
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	f.Fuzz(func(t *testing.T, body string) {
		for _, path := range []string{"/sweep", "/recommend"} {
			req, err := http.NewRequestWithContext(ctx, http.MethodPost, path, strings.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, req)
			var e map[string]string
			if (rec.Code != http.StatusBadRequest && rec.Code != http.StatusServiceUnavailable) ||
				json.Unmarshal(rec.Body.Bytes(), &e) != nil || e["error"] == "" {
				t.Fatalf("%s %q: status %d, body %s; want a 400 or 503 with an error body", path, body, rec.Code, rec.Body.Bytes())
			}
		}
		if st := session.Stats(); st.Misses != 0 {
			t.Fatalf("%q: a canceled request simulated %d cells", body, st.Misses)
		}
	})
}
