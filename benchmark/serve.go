package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"time"

	"bufferqoe"
)

// How serve_warm divides --seconds: the closed loop takes half; the
// cold populate passes that fill the store are its set-up.
const serveLoopShare = 0.5

// buildServer compiles cmd/qoebench into the benchmark's out
// directory (the go build cache makes every build after the first a
// relink at most).
func buildServer(ctx context.Context, cfg runConfig) (string, error) {
	bin := filepath.Join(cfg.outDir, "qoebench")
	cmd := exec.CommandContext(ctx, "go", "build", "-o", bin, "./cmd/qoebench")
	cmd.Dir = cfg.root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("go build ./cmd/qoebench: %v\n%s", err, out)
	}
	return bin, nil
}

// server is one running `qoebench -serve` subprocess.
type server struct {
	cmd     *exec.Cmd
	addr    string // host:port of /sweep, /recommend, /healthz
	metrics string // host:port of /metrics, when started with tracing

	mu     sync.Mutex
	stderr bytes.Buffer
	drain  sync.WaitGroup
}

// serverOpts is how a server is started; traceFile != "" also turns
// on the telemetry endpoint.
type serverOpts struct {
	bin, storeDir, traceFile string
	// cells are the server's default run options (its -seed, -duration,
	// -warmup and -reps flags; zero fields keep the program's defaults).
	cells bufferqoe.Options
}

// startServer launches the service on a kernel-chosen port and waits
// for the banner on its stderr that names the address. If ctx is
// canceled the process gets SIGTERM, then a kill after the deadline.
func startServer(ctx context.Context, o serverOpts) (*server, error) {
	args := []string{"-serve", "127.0.0.1:0", "-store", o.storeDir,
		"-parallel", fmt.Sprint(nproc()), "-seed", fmt.Sprint(o.cells.Seed)}
	if o.cells.Duration > 0 {
		args = append(args, "-duration", o.cells.Duration.String(), "-warmup", o.cells.Warmup.String(), "-reps", fmt.Sprint(o.cells.Reps))
	}
	if o.traceFile != "" {
		args = append(args, "-trace", o.traceFile, "-metrics-addr", "127.0.0.1:0")
	}
	s := &server{cmd: exec.CommandContext(ctx, o.bin, args...)}
	s.cmd.Cancel = func() error { return s.cmd.Process.Signal(syscall.SIGTERM) }
	s.cmd.WaitDelay = stopDeadline
	pipe, err := s.cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := s.cmd.Start(); err != nil {
		return nil, err
	}
	type banner struct{ addr, metrics string }
	ready := make(chan banner, 1)
	s.drain.Add(1)
	go func() {
		defer s.drain.Done()
		var b banner
		sc := bufio.NewScanner(pipe)
		for sc.Scan() {
			line := sc.Text()
			s.mu.Lock()
			s.stderr.WriteString(line + "\n")
			s.mu.Unlock()
			if _, url, ok := strings.Cut(line, " on http://"); ok {
				if strings.Contains(line, "/metrics") {
					b.metrics = url
				} else if strings.Contains(line, "/sweep") {
					b.addr = url
					ready <- b
				}
			}
		}
		close(ready)
	}()
	select {
	case b, ok := <-ready:
		if !ok {
			s.stop() //nolint:errcheck // already failed; the log says why
			return nil, fmt.Errorf("qoebench -serve exited before listening:\n%s", s.log())
		}
		s.addr, s.metrics = b.addr, b.metrics
		return s, nil
	case <-time.After(30 * time.Second):
		s.stop() //nolint:errcheck // already failed; the log says why
		return nil, fmt.Errorf("qoebench -serve did not announce its address:\n%s", s.log())
	}
}

func (s *server) log() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stderr.String()
}

// stopDeadline is how long a server gets to shut down after SIGTERM.
const stopDeadline = 15 * time.Second

// serverUsage is what a stopped server process consumed.
type serverUsage struct {
	cpuS, peakRSSMB float64
}

// stop sends SIGTERM, waits for the process to end (killing it at the
// deadline) and returns what it consumed. A server that does not shut
// down cleanly is an error: the store may not have been flushed.
func (s *server) stop() (serverUsage, error) {
	if s.cmd.ProcessState != nil {
		return serverUsage{}, nil
	}
	peak := peakRSSMB(fmt.Sprint(s.cmd.Process.Pid)) // while the process is still there
	s.cmd.Process.Signal(syscall.SIGTERM)            //nolint:errcheck // already gone is fine; Wait reports
	timer := time.AfterFunc(stopDeadline, func() { s.cmd.Process.Kill() })
	s.drain.Wait() // stderr closes when the process ends; Wait must follow the reads
	err := s.cmd.Wait()
	timer.Stop()
	u := serverUsage{peakRSSMB: peak}
	if ru, ok := s.cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		u.cpuS = rusageCPU(ru)
	}
	if err != nil {
		return u, fmt.Errorf("qoebench -serve: %v\n%s", err, s.log())
	}
	if !strings.Contains(s.log(), "shut down cleanly") {
		return u, fmt.Errorf("qoebench -serve did not shut down cleanly:\n%s", s.log())
	}
	return u, nil
}

// reply is what the benchmark keeps of one response.
type reply struct {
	status int
	body   []byte
}

// payload is the part of a reply that must not change between the
// cold pass and any later one: the grid or the recommendation, as the
// server rendered it. The stats and the elapsed time around it vary.
func (r reply) payload() (string, error) {
	var doc struct {
		Sweep     json.RawMessage `json:"sweep"`
		Recommend json.RawMessage `json:"recommend"`
	}
	if err := json.Unmarshal(r.body, &doc); err != nil {
		return "", err
	}
	if len(doc.Sweep)+len(doc.Recommend) == 0 {
		return "", errors.New("reply carries neither a sweep nor a recommendation")
	}
	return string(doc.Sweep) + string(doc.Recommend), nil
}

// client talks to one server over keep-alive connections, at most
// nproc of them.
type client struct {
	http *http.Client
	base string
}

func newClient(addr string) *client {
	tr := &http.Transport{MaxIdleConnsPerHost: nproc(), MaxConnsPerHost: nproc()}
	return &client{&http.Client{Transport: tr, Timeout: 60 * time.Second}, "http://" + addr}
}

func (c *client) close() { c.http.CloseIdleConnections() }

func (c *client) post(ctx context.Context, b serveBody) (reply, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+b.Path, strings.NewReader(b.Body))
	if err != nil {
		return reply{}, err
	}
	req.Header.Set("Content-Type", "application/json")
	return c.do(req)
}

func (c *client) get(ctx context.Context, path string) (reply, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+path, nil)
	if err != nil {
		return reply{}, err
	}
	return c.do(req)
}

func (c *client) do(req *http.Request) (reply, error) {
	resp, err := c.http.Do(req)
	if err != nil {
		return reply{}, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return reply{resp.StatusCode, body}, err
}

// serverStats is the engine block of a /healthz reply.
type serverStats struct {
	CellsSimulated uint64 `json:"cells_simulated"`
	CacheHits      uint64 `json:"cache_hits"`
	StoreHits      uint64 `json:"store_hits"`
	StoreMisses    uint64 `json:"store_misses"`
	StoreWrites    uint64 `json:"store_writes"`
}

func (c *client) healthz(ctx context.Context) (serverStats, error) {
	r, err := c.get(ctx, "/healthz")
	if err != nil {
		return serverStats{}, err
	}
	var doc struct {
		Status string      `json:"status"`
		Stats  serverStats `json:"stats"`
	}
	if err := json.Unmarshal(r.body, &doc); err != nil || r.status != http.StatusOK || doc.Status != "ok" {
		return serverStats{}, fmt.Errorf("/healthz: status %d, body %q (%v)", r.status, r.body, err)
	}
	return doc.Stats, nil
}

// pass is one sequential walk over the request set.
type pass struct {
	wallS   float64
	latS    []float64 // per body
	payload []string  // per body
	length  []int     // per body: reply size in bytes
	stats   serverStats
}

// walk POSTs every body once, in order, on one connection, and keeps
// each reply's payload. Each body is one attempt.
func walk(ctx context.Context, c *client, bodies []serveBody, t *tally, onReply func(i int, start, end time.Time)) (pass, error) {
	var p pass
	t0 := time.Now()
	for i, b := range bodies {
		start := time.Now()
		r, err := c.post(ctx, b)
		end := time.Now()
		if err != nil {
			return p, fmt.Errorf("POST %s: %w", b.Path, err)
		}
		pl, perr := r.payload()
		t.check(r.status == http.StatusOK && perr == nil, "POST %s %s: status %d (%v)", b.Path, b.Body, r.status, perr)
		p.latS = append(p.latS, end.Sub(start).Seconds())
		p.payload = append(p.payload, pl)
		p.length = append(p.length, len(r.body))
		if onReply != nil {
			onReply(i, start, end)
		}
	}
	p.wallS = time.Since(t0).Seconds()
	var err error
	p.stats, err = c.healthz(ctx)
	return p, err
}

// populate is one cold pass: a server on an empty store answers the
// whole request set, computing and persisting every cell, and shuts
// down. This is serve_warm's set-up.
type populate struct {
	pass
	usage serverUsage
}

func coldPopulate(ctx context.Context, o serverOpts, bodies []serveBody, t *tally) (populate, error) {
	var p populate
	srv, err := startServer(ctx, o)
	if err != nil {
		return p, err
	}
	c := newClient(srv.addr)
	p.pass, err = walk(ctx, c, bodies, t, nil)
	c.close()
	if err != nil {
		srv.stop() //nolint:errcheck // the walk's error is the one to report
		return p, err
	}
	p.usage, err = srv.stop()
	return p, err
}

// serveDigest hashes the payloads of a pass in body order.
func serveDigest(payloads []string) string {
	d := newDigest()
	for _, p := range payloads {
		d.str(p)
	}
	return d.sum()
}

// runServe measures serve_warm end to end.
func runServe(ctx context.Context, cfg runConfig) (res *result, err error) {
	res = newResult("serve_warm", cfg)
	t := &tally{}
	bodies := serveBodies(cfg.seed)
	if cfg.smoke {
		bodies = smokeBodies(bodies)
	}
	tmp, err := os.MkdirTemp(cfg.outDir, "serve-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)

	// Set-up, several times over: build the binary, populate an empty
	// store through a cold server, shut it down. The cold passes also
	// give the workload's fresh-cell throughput and its cold
	// /recommend latency (the first four bodies, asked before any
	// sweep has warmed their cells).
	var setups, cps, cpuMS, recS []float64
	var cold populate
	var opts serverOpts
	for i := 0; i < cfg.setups(); i++ {
		t0 := time.Now()
		bin, err := buildServer(ctx, cfg)
		if err != nil {
			return nil, err
		}
		opts = serverOpts{bin: bin, storeDir: filepath.Join(tmp, fmt.Sprintf("store-%d", i)), cells: cfg.options()}
		p, err := coldPopulate(ctx, opts, bodies, t)
		if err != nil {
			return nil, err
		}
		fresh := float64(p.stats.CellsSimulated)
		if fresh == 0 {
			return nil, errors.New("the cold pass simulated no cell")
		}
		setups = append(setups, time.Since(t0).Seconds())
		cps = append(cps, fresh/p.wallS)
		cpuMS = append(cpuMS, p.usage.cpuS*1e3/fresh)
		var rec []float64
		for j, b := range bodies {
			if b.Path == "/recommend" {
				rec = append(rec, p.latS[j])
			}
		}
		recS = append(recS, mean(rec))
		t.check(p.stats.StoreWrites == p.stats.CellsSimulated, "cold pass %d: %d cells simulated, %d persisted", i, p.stats.CellsSimulated, p.stats.StoreWrites)
		if i > 0 {
			t.check(serveDigest(p.payload) == serveDigest(cold.payload), "cold pass %d answered differently than pass %d", i, i-1)
		}
		cold = p
	}
	res.setMedian("setup_s", setups, "s")
	res.setMedian("cells_per_s", cps, "cells/s")
	res.setMedian("cpu_ms_per_cell", cpuMS, "ms")
	res.setMedian("recommend_cold_s", recS, "s")
	res.Digests["replies"] = serveDigest(cold.payload)

	// Restart on the last store: nothing may be simulated from here on.
	srv, err := startServer(ctx, opts)
	if err != nil {
		return nil, err
	}
	defer func() {
		if _, serr := srv.stop(); serr != nil && err == nil {
			err = serr
		}
	}()
	c := newClient(srv.addr)
	defer c.close()
	warm, err := walk(ctx, c, bodies, t, nil)
	if err != nil {
		return nil, err
	}
	for i := range bodies {
		t.check(warm.payload[i] == cold.payload[i], "store-warm reply %d differs from the cold one", i)
	}
	res.Notes = append(res.Notes, fmt.Sprintf("store.warm_pass_ms %.3f (%d bodies, %d store hits)", warm.wallS*1e3, len(bodies), warm.stats.StoreHits))

	loop := serveLoop(ctx, c, bodies, cold.pass, time.Duration(cfg.seconds.Seconds()*serveLoopShare*float64(time.Second)))
	t.addLoop("requests", loop)
	reportLoop(res, loop)

	st, err := c.healthz(ctx)
	if err != nil {
		return nil, err
	}
	t.check(st.CellsSimulated == 0, "the restarted server simulated %d cells; every cell should come from the store", st.CellsSimulated)
	if !cfg.smoke {
		t.checkDigests("serve_warm", cfg.seed, res.Digests)
	}

	c.close()
	usage, err := srv.stop()
	if err != nil {
		return nil, err
	}
	res.set("peak_rss_mb", usage.peakRSSMB, "MB")
	res.close(t)
	return res, ctx.Err()
}

// bodyFor is the index of the body a caller sends as its seq-th
// request: together the callers walk the set in order, round and round.
func bodyFor(caller, seq, bodies int) int { return (seq*nproc() + caller) % bodies }

// serveLoop is the measured closed loop: nproc callers cycle the
// request set over keep-alive connections. One reply in 64 is decoded
// and compared with the cold pass; the rest are checked for status
// and size (the payload is fixed; only the counters around it grow).
func serveLoop(ctx context.Context, c *client, bodies []serveBody, cold pass, d time.Duration) loopResult {
	return closedLoop(ctx, nproc(), d, func(caller, seq int) error {
		i := bodyFor(caller, seq, len(bodies))
		r, err := c.post(ctx, bodies[i])
		if err != nil {
			return err
		}
		if r.status != http.StatusOK {
			return fmt.Errorf("status %d", r.status)
		}
		if seq%64 == 0 {
			pl, err := r.payload()
			if err != nil {
				return err
			}
			if pl != cold.payload[i] {
				return errors.New("reply differs from the cold pass")
			}
			return nil
		}
		if diff := len(r.body) - cold.length[i]; diff < -64 || diff > 64 {
			return fmt.Errorf("reply of %d bytes, the cold one had %d", len(r.body), cold.length[i])
		}
		return nil
	})
}
