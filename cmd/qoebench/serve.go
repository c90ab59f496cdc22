package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"bufferqoe"
	"bufferqoe/internal/jsonenc"
)

// serveRequest is the JSON body of POST /sweep and POST /recommend.
// Every field is optional; the zero value describes the same sweep as
// running qoebench with no axis flags (access network, noBG workload,
// downstream congestion, the paper's buffer sweep, voip/web/video:SD
// probes). The axis fields mirror the CLI flags one-to-one — the
// server and the CLI compile through the same code path — so anything
// expressible as flags is expressible as a request body.
type serveRequest struct {
	// Axes (see the corresponding CLI flags).
	Network   string   `json:"network,omitempty"`
	Workloads []string `json:"workloads,omitempty"`
	Mix       string   `json:"mix,omitempty"`
	Dir       string   `json:"dir,omitempty"`
	Buffers   []int    `json:"buffers,omitempty"`
	Probes    []string `json:"probes,omitempty"`
	BufUp     int      `json:"bufup,omitempty"`
	AQM       string   `json:"aqm,omitempty"`
	CC        string   `json:"cc,omitempty"`
	JitterMS  float64  `json:"jitter_ms,omitempty"`

	// Custom link (enables an access-shaped custom link when any is
	// non-zero). Link selects the family ("wired" or "wifi"); the wifi
	// knobs and Reorder mirror the -stations/-wifiretry/-wifiagg/
	// -reorder flags.
	Link          string  `json:"link,omitempty"`
	UpRate        float64 `json:"uprate,omitempty"`
	DownRate      float64 `json:"downrate,omitempty"`
	ClientDelayMS float64 `json:"client_delay_ms,omitempty"`
	ServerDelayMS float64 `json:"server_delay_ms,omitempty"`
	Stations      int     `json:"stations,omitempty"`
	WifiRetry     int     `json:"wifi_retry,omitempty"`
	WifiAgg       int     `json:"wifi_agg,omitempty"`
	Reorder       float64 `json:"reorder,omitempty"`

	// Run options; zero fields inherit the server's -seed/-duration/
	// -warmup/-reps/-clip defaults.
	Seed      uint64  `json:"seed,omitempty"`
	DurationS float64 `json:"duration_s,omitempty"`
	WarmupS   float64 `json:"warmup_s,omitempty"`
	Reps      int     `json:"reps,omitempty"`
	ClipS     int     `json:"clip_s,omitempty"`

	// Recommend-only.
	Target    string  `json:"target,omitempty"`
	Threshold float64 `json:"threshold,omitempty"`
}

// flags maps a request onto the CLI's sweepFlags so both surfaces
// compile scenarios through the single compileSweep authority.
func (q serveRequest) flags() sweepFlags {
	f := sweepFlags{
		network:     q.Network,
		workloads:   strings.Join(q.Workloads, ","),
		mix:         q.Mix,
		dir:         q.Dir,
		probes:      strings.Join(q.Probes, ","),
		bufUp:       q.BufUp,
		aqm:         q.AQM,
		cc:          q.CC,
		jitter:      time.Duration(q.JitterMS * float64(time.Millisecond)),
		upRate:      q.UpRate,
		downRate:    q.DownRate,
		clientDelay: time.Duration(q.ClientDelayMS * float64(time.Millisecond)),
		serverDelay: time.Duration(q.ServerDelayMS * float64(time.Millisecond)),
		link:        q.Link,
		stations:    q.Stations,
		wifiRetry:   q.WifiRetry,
		wifiAgg:     q.WifiAgg,
		reorder:     q.Reorder,
	}
	if f.workloads == "" {
		f.workloads = "noBG"
	}
	if f.dir == "" {
		f.dir = "down"
	}
	if f.probes == "" {
		f.probes = "voip,web,video:SD"
	}
	if len(q.Buffers) > 0 {
		parts := make([]string, len(q.Buffers))
		for i, b := range q.Buffers {
			parts[i] = fmt.Sprintf("%d", b)
		}
		f.buffers = strings.Join(parts, ",")
	}
	return f
}

// options overlays the request's run options on the server's
// defaults. Requests that leave everything zero share cache and store
// entries with every other default-option request — the warm path the
// service exists for.
func (q serveRequest) options(base bufferqoe.Options) bufferqoe.Options {
	o := base
	o.OnProgress = nil
	if q.Seed != 0 {
		o.Seed = q.Seed
	}
	if q.DurationS > 0 {
		o.Duration = time.Duration(q.DurationS * float64(time.Second))
	}
	if q.WarmupS > 0 {
		o.Warmup = time.Duration(q.WarmupS * float64(time.Second))
	}
	if q.Reps > 0 {
		o.Reps = q.Reps
	}
	if q.ClipS > 0 {
		o.ClipSeconds = q.ClipS
	}
	return o
}

// serveResponse is the JSON body of successful /sweep and /recommend
// responses: the result plus the session's cumulative engine
// statistics (one session serves every request, so stats are
// service-lifetime totals) and this request's wall time.
type serveResponse struct {
	Sweep     *bufferqoe.Grid           `json:"sweep,omitempty"`
	Recommend *bufferqoe.Recommendation `json:"recommend,omitempty"`
	Stats     jsonStats                 `json:"stats"`
	ElapsedS  float64                   `json:"elapsed_s"`
}

// healthResponse is the body of GET /healthz.
type healthResponse struct {
	Status  string    `json:"status"`
	UptimeS float64   `json:"uptime_s"`
	Stats   jsonStats `json:"stats"`
}

// qoeServer handles the service mode's endpoints. All requests run on
// one shared Session: one in-memory cache, one persistent store (when
// -store is given), and one bounded worker pool — the engine's
// semaphore, sized by -parallel — so a thousand concurrent requests
// queue their cells instead of spawning a thousand times the
// hardware's worth of simulations, and identical cells across
// requests coalesce into a single compute.
type qoeServer struct {
	session *bufferqoe.Session
	base    bufferqoe.Options
	start   time.Time
}

// handler builds the service mux. Factored off runServe so tests can
// drive the handlers without sockets or signals.
func newServeHandler(session *bufferqoe.Session, base bufferqoe.Options) http.Handler {
	s := &qoeServer{session: session, base: base, start: time.Now()}
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", s.healthz)
	mux.HandleFunc("/sweep", s.sweep)
	mux.HandleFunc("/recommend", s.recommend)
	return mux
}

func (s *qoeServer) healthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, healthResponse{
		Status:  "ok",
		UptimeS: time.Since(s.start).Seconds(),
		Stats:   statsOf(s.session),
	})
}

// decodeRequest parses one POST body; a nil error means q is usable.
func decodeRequest(w http.ResponseWriter, r *http.Request) (q serveRequest, ok bool) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		writeError(w, http.StatusMethodNotAllowed, "POST required")
		return q, false
	}
	body := http.MaxBytesReader(w, r.Body, 1<<20)
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&q); err != nil && !errors.Is(err, io.EOF) {
		writeError(w, http.StatusBadRequest, "bad request body: "+err.Error())
		return q, false
	}
	// One JSON object is the whole request; only whitespace may follow.
	if _, err := dec.Token(); !errors.Is(err, io.EOF) {
		writeError(w, http.StatusBadRequest, "bad request body: trailing data after the JSON object")
		return q, false
	}
	return q, true
}

func (s *qoeServer) sweep(w http.ResponseWriter, r *http.Request) {
	q, ok := decodeRequest(w, r)
	if !ok {
		return
	}
	scenarios, bufs, probes, err := q.flags().compileSweep()
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	start := time.Now()
	// r.Context() bounds the run: a dropped connection abandons the
	// request's queued cells (in-flight cells drain into the shared
	// cache, so the work is not lost — the retry is warm).
	grid, err := s.session.SweepCtx(r.Context(), bufferqoe.Sweep{
		Scenarios: scenarios, Buffers: bufs, Probes: probes,
	}, q.options(s.base))
	if err != nil {
		writeRunError(w, err)
		return
	}
	writeReply(w, serveResponse{
		Sweep:    grid,
		Stats:    statsOf(s.session),
		ElapsedS: time.Since(start).Seconds(),
	})
}

func (s *qoeServer) recommend(w http.ResponseWriter, r *http.Request) {
	q, ok := decodeRequest(w, r)
	if !ok {
		return
	}
	scenarios, bufs, probes, err := q.flags().compileSweep()
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	if len(scenarios) != 1 {
		writeError(w, http.StatusBadRequest, "recommend takes exactly one workload")
		return
	}
	var tgt bufferqoe.Target
	switch q.Target {
	case "min-mos", "":
		tgt = bufferqoe.MinBufferMeetingMOS
	case "max-mos":
		tgt = bufferqoe.MaxAggregateMOS
	default:
		writeError(w, http.StatusBadRequest, fmt.Sprintf("unknown target %q (want min-mos or max-mos)", q.Target))
		return
	}
	if len(q.Buffers) == 0 {
		bufs = nil // let Recommend bracket the paper's sweep with the BDP
	}
	threshold := q.Threshold
	if threshold == 0 {
		threshold = 3.5
	}
	start := time.Now()
	rec, err := s.session.Recommend(r.Context(), bufferqoe.RecommendSpec{
		Scenario: scenarios[0], Probes: probes, Buffers: bufs,
		Target: tgt, Threshold: threshold,
	}, q.options(s.base))
	if err != nil {
		writeRunError(w, err)
		return
	}
	writeReply(w, serveResponse{
		Recommend: rec,
		Stats:     statsOf(s.session),
		ElapsedS:  time.Since(start).Seconds(),
	})
}

// writeRunError maps a run failure to a status: cancellation means
// the client hung up or the server is draining (503 tells well-behaved
// clients to retry), anything else is a request the facade rejected.
func writeRunError(w http.ResponseWriter, err error) {
	if errors.Is(err, bufferqoe.ErrCanceled) {
		writeError(w, http.StatusServiceUnavailable, "canceled before all cells ran")
		return
	}
	writeError(w, http.StatusBadRequest, err.Error())
}

// writeReply writes a successful reply in one pass: byte for byte
// what writeJSON writes for r, without reflecting over the result or
// re-scanning the encoded bytes to indent them. A result JSON cannot
// represent (a NaN or ±Inf score) is found before the header goes
// out, and answered 500 with an error body instead of an empty 200.
func writeReply(w http.ResponseWriter, r serveResponse) {
	cells := 0
	if r.Sweep != nil {
		cells += len(r.Sweep.Cells)
	}
	if r.Recommend != nil {
		cells += len(r.Recommend.Cells)
	}
	in := jsonenc.NewIndent("")
	b := make([]byte, 0, 512+256*cells) // a cell nested in a reply writes ~250 bytes
	b = append(b, '{')
	start := in.Line(1) // what precedes the next member
	var err error
	if r.Sweep != nil {
		b = jsonenc.AppendKey(b, start, `"sweep": `)
		b, err = r.Sweep.AppendJSON(b, "  ")
		start = in.Next(1)
	}
	if r.Recommend != nil && err == nil {
		b = jsonenc.AppendKey(b, start, `"recommend": `)
		b, err = r.Recommend.AppendJSON(b, "  ")
		start = in.Next(1)
	}
	if err != nil {
		writeError(w, http.StatusInternalServerError, "encoding the reply: "+err.Error())
		return
	}
	b = jsonenc.AppendKey(b, start, `"stats": `)
	b = r.Stats.appendJSON(b, in, 1)
	b = jsonenc.AppendKey(b, in.Next(1), `"elapsed_s": `)
	b = jsonenc.AppendFloat(b, r.ElapsedS)
	b = append(b, "\n}\n"...)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	w.Write(b) //nolint:errcheck // client gone; nothing to do
}

// writeJSON encodes v with encoding/json: the error replies and
// /healthz, which are cold.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v) //nolint:errcheck // client gone; nothing to do
}

func writeError(w http.ResponseWriter, status int, msg string) {
	writeJSON(w, status, map[string]string{"error": msg})
}

// runServe runs the HTTP/JSON service until SIGINT/SIGTERM, then
// shuts down gracefully: the listener closes, in-flight requests get
// up to 30s to finish (their cells keep draining into the cache and
// store), and the deferred -store close in run() flushes queued
// writes before the process exits.
func runServe(addr string, session *bufferqoe.Session, base bufferqoe.Options, stderr io.Writer) int {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		fmt.Fprintf(stderr, "qoebench: -serve: %v\n", err)
		return 2
	}
	srv := &http.Server{
		Handler:           newServeHandler(session, base),
		ReadHeaderTimeout: 10 * time.Second,
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	fmt.Fprintf(stderr, "qoebench: serving /sweep, /recommend, /healthz on http://%s\n", ln.Addr())

	select {
	case err := <-errc:
		fmt.Fprintf(stderr, "qoebench: -serve: %v\n", err)
		return 1
	case <-ctx.Done():
	}
	stop()
	fmt.Fprintln(stderr, "qoebench: shutting down")
	shutCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := srv.Shutdown(shutCtx); err != nil {
		fmt.Fprintf(stderr, "qoebench: shutdown: %v\n", err)
		srv.Close()
		return 1
	}
	fmt.Fprintln(stderr, "qoebench: shut down cleanly")
	return 0
}
