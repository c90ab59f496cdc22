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

// decodeRequest parses one POST body into the request the CLI's axis
// flags fill (request.go holds the schema); ok means q is usable.
func decodeRequest(w http.ResponseWriter, r *http.Request) (q request, ok bool) {
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
	s.answer(w, r, func(ctx context.Context, q request, o bufferqoe.Options) (serveResponse, error) {
		sw, err := q.sweep()
		if err != nil {
			return serveResponse{}, err
		}
		grid, err := s.session.SweepCtx(ctx, sw, o)
		return serveResponse{Sweep: grid}, err
	})
}

func (s *qoeServer) recommend(w http.ResponseWriter, r *http.Request) {
	s.answer(w, r, func(ctx context.Context, q request, o bufferqoe.Options) (serveResponse, error) {
		spec, err := q.recommend()
		if err != nil {
			return serveResponse{}, err
		}
		rec, err := s.session.Recommend(ctx, spec, o)
		return serveResponse{Recommend: rec}, err
	})
}

// answer decodes one body and runs it on the shared session. The
// request's context bounds the run: a dropped connection abandons its
// queued cells (in-flight cells drain into the shared cache, so the
// work is not lost and the retry is warm).
func (s *qoeServer) answer(w http.ResponseWriter, r *http.Request, run func(context.Context, request, bufferqoe.Options) (serveResponse, error)) {
	q, ok := decodeRequest(w, r)
	if !ok {
		return
	}
	start := time.Now()
	reply, err := run(r.Context(), q, q.options(s.base))
	if err != nil {
		writeRunError(w, err)
		return
	}
	reply.Stats = statsOf(s.session)
	reply.ElapsedS = time.Since(start).Seconds()
	writeReply(w, reply)
}

// writeRunError maps a failed request to a status: cancellation means
// the client hung up or the server is draining (503 tells well-behaved
// clients to retry), a panicking cell is the server's bug (500, naming
// the panic value but not the stack, which the same question asked
// with qoebench's flags prints; the server keeps serving), anything
// else is a request that did not compile or that the facade rejected.
func writeRunError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, bufferqoe.ErrCanceled):
		writeError(w, http.StatusServiceUnavailable, "canceled before all cells ran")
	case errors.Is(err, bufferqoe.ErrCellPanicked):
		msg, _, _ := strings.Cut(err.Error(), "\n")
		writeError(w, http.StatusInternalServerError, msg)
	default:
		writeError(w, http.StatusBadRequest, err.Error())
	}
}

// writeReply writes a successful reply in one pass: byte for byte
// what writeJSON writes for r, without reflecting over the result or
// re-scanning the encoded bytes to indent them. A result JSON cannot
// represent (a NaN or ±Inf score) is found before the header goes
// out, and answered 500 with an error body instead of an empty 200.
func writeReply(w http.ResponseWriter, r serveResponse) {
	in := jsonenc.NewIndent("")
	// The envelope's own bytes — its keys, the stats, the elapsed time;
	// the result's writer grows b for the result, keeping this room.
	b := make([]byte, 0, 512)
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
