package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"bufferqoe"
	"bufferqoe/benchmark/layers"
)

// traceEvent is one line of the JSON-lines cell trace the program
// already writes (Collector.TraceTo, qoebench -trace): one event per
// freshly simulated cell.
type traceEvent struct {
	T       float64 `json:"t"`
	Cell    string  `json:"cell"`
	BuildMS float64 `json:"build_ms"`
	SimMS   float64 `json:"sim_ms"`
	ScoreMS float64 `json:"score_ms"`
	Events  uint64  `json:"events"`
	Heap    int     `json:"heap"`
}

func (e traceEvent) wallMS() float64 { return e.BuildMS + e.SimMS + e.ScoreMS }

// traceSink is the writer an in-process collector traces to. The
// collector writes one whole event per call, when the cell ends, so
// the sink can stamp the event with the benchmark's own clock and
// hang the cell under the Session call that is running (parent).
type traceSink struct {
	rec *recorder

	mu     sync.Mutex
	parent int
	events []traceEvent
}

func (s *traceSink) under(span int) {
	s.mu.Lock()
	s.parent = span
	s.mu.Unlock()
}

func (s *traceSink) Write(p []byte) (int, error) {
	var ev traceEvent
	if err := json.Unmarshal(p, &ev); err != nil {
		return 0, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.events = append(s.events, ev)
	s.rec.cell(s.parent, ev.Cell, s.rec.since(time.Now()), ev.BuildMS, ev.SimMS, ev.ScoreMS)
	return len(p), nil
}

// promCounts parses the Prometheus text the program exposes
// (Collector.WritePrometheus, /metrics) into name -> value, summing
// the series of one name across its labels. Histogram buckets are
// skipped; their _sum and _count stay.
func promCounts(text []byte) map[string]float64 {
	out := map[string]float64{}
	sc := bufio.NewScanner(bytes.NewReader(text))
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		name, _, _ := strings.Cut(line[:i], "{")
		if strings.HasSuffix(name, "_bucket") {
			continue
		}
		out[name] += v
	}
	return out
}

func collectorCounts(col *bufferqoe.Collector) (map[string]float64, error) {
	var buf bytes.Buffer
	if err := col.WritePrometheus(&buf); err != nil {
		return nil, err
	}
	return promCounts(buf.Bytes()), nil
}

// heapStats is what the traced pass learned about the heap of the
// process that simulated the cells.
type heapStats struct {
	mallocs, bytes, gcShare float64
}

// tracedPass is everything the per-workload trace metrics are derived
// from.
type tracedPass struct {
	events []traceEvent
	// counts are the program's counters from the process that simulated
	// the cells; warm, when set, are those of the restarted server that
	// only answered from its store (serve_warm).
	counts, warm map[string]float64
	busyS        float64   // worker busy seconds over the cold part
	coldWallS    float64   // wall of the cold part
	heap         heapStats // over the cold part
	overhead     float64   // traced vs untraced, percent
	storeWarmS   float64   // serve_warm only: the post-restart pass
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// fillTraceMetrics derives the per-workload counts and shares from a
// traced pass and the layer probes.
func fillTraceMetrics(res *result, p tracedPass, probes layers.Set) {
	cells := float64(len(p.events))
	var events, build, sim, score float64
	var walls []float64
	heap, aqmCells, macCells := 0, 0.0, 0.0
	for _, e := range p.events {
		events += float64(e.Events)
		build += e.BuildMS
		sim += e.SimMS
		score += e.ScoreMS
		walls = append(walls, e.wallMS())
		heap = max(heap, e.Heap)
		// The cell label spells out every non-default axis, so the
		// layers a cell ran through can be read off it.
		if strings.Contains(e.Cell, "aqm=") {
			aqmCells++
		}
		if strings.Contains(e.Cell, "wifi=") {
			macCells++
		}
	}
	sort.Float64s(walls)
	total := build + sim + score
	pkts := p.counts["qoe_net_packet_recycles_total"]
	c, w := p.counts, p.counts
	if p.warm != nil {
		w = p.warm
	}
	storeOps := func(m map[string]float64) float64 {
		return m["qoe_store_hits_total"] + m["qoe_store_misses_total"] + m["qoe_store_writes_total"]
	}

	res.set("sim.events_per_cell", ratio(events, cells), "count")
	res.set("netem.pkts_per_cell", ratio(pkts, cells), "count")
	res.set("sim.heap_high_water", float64(heap), "count")
	res.set("reps_per_cell", ratio(c["qoe_reps_per_cell_sum"], c["qoe_reps_per_cell_count"]), "count")
	res.set("cell.wall_p50_ms", percentile(walls, 50), "ms")
	res.set("cell.wall_p95_ms", percentile(walls, 95), "ms")
	res.set("phase.build_share", ratio(build, total), "ratio")
	res.set("phase.sim_share", ratio(sim, total), "ratio")
	res.set("phase.score_share", ratio(score, total), "ratio")
	res.set("engine.worker_util", ratio(p.busyS, p.coldWallS*float64(nproc())), "ratio")
	res.set("engine.cache_hit_ratio", ratio(w["qoe_cache_hits_total"], w["qoe_cache_hits_total"]+w["qoe_cells_simulated_total"]), "ratio")
	res.set("store.hit_ratio", ratio(w["qoe_store_hits_total"], w["qoe_store_hits_total"]+w["qoe_store_misses_total"]), "ratio")
	if p.warm != nil {
		res.set("store.ops", storeOps(c)+storeOps(w), "count")
	} else {
		res.set("store.ops", storeOps(c), "count")
	}
	res.set("store.warm_pass_ms", p.storeWarmS*1e3, "ms")
	res.set("aqm.cells", aqmCells, "count")
	res.set("mac.cells", macCells, "count")
	res.set("allocs_per_cell", ratio(p.heap.mallocs, cells), "allocs")
	res.set("kb_per_cell", ratio(p.heap.bytes/1024, cells), "KB")
	res.set("gc.cpu_share", p.heap.gcShare, "ratio")
	res.set("trace.overhead_pct", p.overhead, "%")
	res.set("attribution.residual_pct", 100*(1-ratio(explainedMS(events, pkts, build+score, probes), total)), "%")
}

// explainedMS is the part of the cells' wall time the per-unit layer
// costs account for: every event at the core's per-event cost, every
// packet at one link hop's own cost (the hop minus the two events it
// fires, already counted), every estimated TCP segment at the
// transport's own cost (the bulk-transfer cost per segment minus its
// events and its one and a half hops — a data packet and its share of
// delayed ACKs), plus the measured build and score phases. What is
// left over is application work (codecs, players, the page model),
// longer paths than one hop, and cache effects no microbenchmark sees.
func explainedMS(events, pkts, buildScoreMS float64, probes layers.Set) float64 {
	const hopsPerSegment = 1.5
	event := probes["sim.event_ns"].V
	hopSelf := math.Max(0, probes["netem.pkt_hop_ns"].V-2*event)
	segSelf := math.Max(0, probes["tcp.segment_ns"].V-probes["tcp.events_per_segment"].V*event-hopsPerSegment*hopSelf)
	segments := pkts / hopsPerSegment
	return buildScoreMS + (events*event+pkts*hopSelf+segments*segSelf)/1e6
}

// runProbes runs the layer probes and copies their readings into the
// result. They run after the traced pass, not first thing: a machine
// that sat idle runs its first seconds slower, which a 15 ms batch
// shows and a 5 s round does not.
func runProbes(res *result, cfg runConfig) (layers.Set, error) {
	probes, err := layers.Run(cfg.outDir, cfg.smoke)
	if err != nil {
		return nil, fmt.Errorf("layer probes: %w", err)
	}
	for name, v := range probes {
		res.set(name, v.V, v.Unit)
	}
	return probes, nil
}

func spanFile(cfg runConfig, workload string) string {
	return filepath.Join(cfg.outDir, "trace-"+workload+".json")
}

// traceCold is the traced run of a cold workload: one round with a
// collector tracing into the span recorder, followed by a cold sizing
// question and a warm re-query so the trace shows every kind of call
// the workload makes, between two rounds with no collector (the
// reference), then the layer probes. It reports the per-layer metrics.
func traceCold(ctx context.Context, d coldDef, cfg runConfig) (*result, error) {
	res, t := newResult(d.name, cfg), &tally{}
	opts := cfg.options()
	sw := d.sweep()
	rec := newRecorder()
	root, endRoot := rec.begin(0, "workload", map[string]string{"name": d.name, "seed": fmt.Sprint(cfg.seed)})

	call := func(parent int, name string, attrs map[string]string, fn func(span int) error) error {
		id, end := rec.begin(parent, name, attrs)
		defer end()
		return fn(id)
	}

	// The reference for the tracing overhead: one round with no
	// collector before the traced one and one after, so that whatever
	// favours the later rounds of a process (a grown heap, a machine
	// out of its idle state) counts for and against in equal parts.
	untraced := func() (r coldRound, err error) {
		err = call(root, "round", map[string]string{"collector": "off"}, func(round int) error {
			return call(round, "session.sweep", nil, func(int) (err error) {
				r, err = sweepRound(ctx, sw, opts, nil)
				r.sess = nil
				return err
			})
		})
		return r, err
	}
	ref, err := untraced()
	if err != nil {
		return nil, err
	}

	col := bufferqoe.NewCollector()
	sink := &traceSink{rec: rec}
	col.TraceTo(sink)
	var pass tracedPass
	var traced coldRound
	err = call(root, "round", map[string]string{"collector": "on"}, func(round int) error {
		err := call(round, "session.sweep", nil, func(span int) (err error) {
			sink.under(span)
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			gc0, cpu0 := gcCPU()
			traced, err = sweepRound(ctx, sw, opts, col)
			runtime.ReadMemStats(&m1)
			gc1, cpu1 := gcCPU()
			pass.heap = heapStats{float64(m1.Mallocs - m0.Mallocs), float64(m1.TotalAlloc - m0.TotalAlloc), ratio(gc1-gc0, cpu1-cpu0)}
			pass.busyS, pass.coldWallS = col.Metrics().WorkerBusySeconds, traced.wallS
			return err
		})
		if err != nil {
			return err
		}
		err = call(round, "session.recommend", nil, func(span int) error {
			sink.under(span)
			s := newSession()
			s.SetCollector(col)
			rec, err := s.Recommend(ctx, d.recommends[0], opts)
			if err == nil {
				t.checkCells("recommend", rec.Cells)
			}
			return err
		})
		if err != nil {
			return err
		}
		return call(round, "session.sweep", map[string]string{"cache": "warm"}, func(span int) error {
			sink.under(span)
			g, err := traced.sess.SweepCtx(ctx, sw, opts)
			if err == nil {
				t.check(gridDigest(g) == gridDigest(traced.grid), "the warm re-query answered differently")
			}
			return err
		})
	})
	if err != nil {
		return nil, err
	}
	col.TraceTo(nil)
	ref2, err := untraced()
	if err != nil {
		return nil, err
	}
	endRoot()

	t.checkCells("sweep", traced.grid.Cells)
	for _, r := range []coldRound{ref, ref2} {
		t.check(gridDigest(r.grid) == gridDigest(traced.grid), "the traced round computed different values than an untraced one")
	}
	res.Digests["grid"] = gridDigest(traced.grid)

	sink.mu.Lock()
	pass.events = sink.events
	sink.mu.Unlock()
	if pass.counts, err = collectorCounts(col); err != nil {
		return nil, err
	}
	refWallS := (ref.wallS + ref2.wallS) / 2
	pass.overhead = 100 * (traced.wallS - refWallS) / refWallS
	probes, err := runProbes(res, cfg)
	if err != nil {
		return nil, err
	}
	fillTraceMetrics(res, pass, probes)
	res.set("serve.healthz_us", 0, "us") // no server in a cold workload
	res.set("serve.http_overhead_us", 0, "us")
	res.set("serve.req_p99_ms", 0, "ms")
	if err := writeSpans(spanFile(cfg, d.name), d.name, rec.finish()); err != nil {
		return nil, err
	}
	res.close(t)
	return res, ctx.Err()
}

// readTrace parses a JSON-lines trace file written by qoebench -trace.
func readTrace(path string) ([]traceEvent, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var out []traceEvent
	for _, line := range bytes.Split(data, []byte("\n")) {
		if len(bytes.TrimSpace(line)) == 0 {
			continue
		}
		var ev traceEvent
		if err := json.Unmarshal(line, &ev); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		out = append(out, ev)
	}
	return out, nil
}

// scrape reads the server's telemetry endpoint: the Prometheus
// counters, and the runtime's heap statistics as the standard heap
// profile's text form prints them.
func scrape(ctx context.Context, srv *server) (counts map[string]float64, heap heapStats, err error) {
	c := newClient(srv.metrics)
	defer c.close()
	r, err := c.get(ctx, "/metrics")
	if err != nil {
		return nil, heap, err
	}
	counts = promCounts(r.body)
	r, err = c.get(ctx, "/debug/pprof/heap?debug=1")
	if err != nil {
		return nil, heap, err
	}
	field := func(name string) float64 {
		_, rest, ok := bytes.Cut(r.body, []byte("# "+name+" = "))
		if !ok {
			return 0
		}
		line, _, _ := bytes.Cut(rest, []byte("\n"))
		v, _ := strconv.ParseFloat(string(bytes.TrimSpace(line)), 64)
		return v
	}
	heap = heapStats{field("Mallocs"), field("TotalAlloc"), field("GCCPUFraction")}
	return counts, heap, nil
}

// traceServe is the traced run of serve_warm: the layer probes, a
// traced cold pass (server started with -trace and -metrics-addr), a
// traced warm server, and an untraced warm server as the reference
// for the tracing overhead and the HTTP-layer figures.
func traceServe(ctx context.Context, cfg runConfig) (*result, error) {
	res := newResult("serve_warm", cfg)
	t := &tally{}
	bodies := serveBodies(cfg.seed)
	if cfg.smoke {
		bodies = smokeBodies(bodies)
	}
	tmp, err := os.MkdirTemp(cfg.outDir, "serve-trace-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)
	bin, err := buildServer(ctx, cfg)
	if err != nil {
		return nil, err
	}
	rec := newRecorder()
	root, endRoot := rec.begin(0, "workload", map[string]string{"name": "serve_warm", "seed": fmt.Sprint(cfg.seed)})
	requestSpans := func(parent int, ids []int) func(i int, start, end time.Time) {
		return func(i int, start, end time.Time) {
			ids[i] = rec.add(parent, "http.request", rec.since(start), rec.since(end), map[string]string{"path": bodies[i].Path, "body": bodies[i].Body})
		}
	}

	// Cold pass, traced. The server's trace clock starts when its
	// collector is created; the scrape of its uptime ties that clock to
	// the benchmark's, so each traced cell can be hung under the
	// request that was in flight when it finished.
	var pass tracedPass
	opts := serverOpts{bin: bin, storeDir: filepath.Join(tmp, "store"), traceFile: filepath.Join(tmp, "cold.jsonl"), cells: cfg.options()}
	coldRound, endCold := rec.begin(root, "round", map[string]string{"store": "cold"})
	srv, err := startServer(ctx, opts)
	if err != nil {
		return nil, err
	}
	defer srv.stop() //nolint:errcheck // a second stop is a no-op; the one below reports
	c := newClient(srv.addr)
	coldIDs := make([]int, len(bodies))
	cold, err := walk(ctx, c, bodies, t, requestSpans(coldRound, coldIDs))
	c.close()
	if err != nil {
		return nil, err
	}
	scrapedAt := time.Now()
	counts, heap, err := scrape(ctx, srv)
	if err != nil {
		return nil, err
	}
	traceStart := scrapedAt.Add(-time.Duration(counts["qoe_collector_uptime_seconds_total"] * float64(time.Second)))
	pass.counts, pass.busyS, pass.coldWallS, pass.heap = counts, counts["qoe_worker_busy_seconds_total"], cold.wallS, heap
	if _, err := srv.stop(); err != nil {
		return nil, err
	}
	endCold()
	if pass.events, err = readTrace(opts.traceFile); err != nil {
		return nil, err
	}
	spans := rec.finish()
	for _, ev := range pass.events {
		end := rec.since(traceStart.Add(time.Duration(ev.T * float64(time.Second))))
		parent := coldRound
		for _, id := range coldIDs {
			if s := spans[id-1]; s.Start <= end && end <= s.End {
				parent = id
			}
		}
		rec.cell(parent, ev.Cell, end, ev.BuildMS, ev.SimMS, ev.ScoreMS)
	}
	t.check(len(pass.events) == int(cold.stats.CellsSimulated), "the trace holds %d cells, the server simulated %d", len(pass.events), cold.stats.CellsSimulated)

	// Warm server, traced: the post-restart pass, the HTTP floor, and a
	// short closed loop.
	loopFor := time.Duration(cfg.seconds.Seconds() * serveLoopShare / 2 * float64(time.Second))
	opts.traceFile = filepath.Join(tmp, "warm.jsonl")
	warmRound, endWarm := rec.begin(root, "round", map[string]string{"store": "warm", "collector": "on"})
	warmCounts, tracedLoop, err := warmServer(ctx, opts, bodies, cold, t, &pass, res, func(c *client) loopResult {
		return closedLoop(ctx, nproc(), loopFor, func(caller, seq int) error {
			i := bodyFor(caller, seq, len(bodies))
			start := time.Now()
			r, err := c.post(ctx, bodies[i])
			rec.add(warmRound, "http.request", rec.since(start), rec.since(time.Now()), map[string]string{"path": bodies[i].Path})
			if err == nil && r.status != 200 {
				err = fmt.Errorf("status %d", r.status)
			}
			return err
		})
	})
	endWarm()
	if err != nil {
		return nil, err
	}
	pass.warm = warmCounts

	// Warm server, untraced: the reference loop, and the 36-cell sweep
	// on its own for the HTTP-overhead figure.
	opts.traceFile = ""
	var sweep36 loopResult
	_, endRef := rec.begin(root, "round", map[string]string{"store": "warm", "collector": "off"})
	_, refLoop, err := warmServer(ctx, opts, bodies, cold, t, nil, nil, func(c *client) loopResult {
		big := bodies[0]
		for _, b := range bodies {
			if b.Cells > big.Cells {
				big = b
			}
		}
		sweep36 = closedLoop(ctx, 1, loopFor/2, func(int, int) error {
			_, err := c.post(ctx, big)
			return err
		})
		return serveLoop(ctx, c, bodies, cold, loopFor)
	})
	endRef()
	if err != nil {
		return nil, err
	}
	endRoot()

	t.addLoop("traced requests", tracedLoop)
	t.addLoop("untraced requests", refLoop)
	p50, p50ref := percentile(tracedLoop.LatMS, 50), percentile(refLoop.LatMS, 50)
	pass.overhead = 100 * ratio(p50-p50ref, p50ref)
	probes, err := runProbes(res, cfg)
	if err != nil {
		return nil, err
	}
	fillTraceMetrics(res, pass, probes)
	facade := probes["facade.sweep_warm_us_per_cell"].V*36 + probes["facade.grid_json_us"].V
	res.set("serve.http_overhead_us", percentile(sweep36.LatMS, 50)*1e3-facade, "us")
	_, _, tail, _ := refLoop.windowed(99)
	res.set("serve.req_p99_ms", median(tail), "ms")
	res.Digests["replies"] = serveDigest(cold.payload)
	if err := writeSpans(spanFile(cfg, "serve_warm"), "serve_warm", rec.finish()); err != nil {
		return nil, err
	}
	res.close(t)
	return res, ctx.Err()
}

// warmServer starts a server on the populated store, replays the
// request set once (every cell a store hit), lets use run its loop,
// asserts nothing was simulated and shuts the server down. With pass
// and res set (the traced server) it also records the post-restart
// pass, the /healthz floor and the server's counters.
func warmServer(ctx context.Context, o serverOpts, bodies []serveBody, cold pass, t *tally, tp *tracedPass, res *result, use func(*client) loopResult) (counts map[string]float64, loop loopResult, err error) {
	srv, err := startServer(ctx, o)
	if err != nil {
		return nil, loop, err
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
		return nil, loop, err
	}
	for i := range bodies {
		t.check(warm.payload[i] == cold.payload[i], "store-warm reply %d differs from the cold one", i)
	}
	if tp != nil {
		tp.storeWarmS = warm.wallS
		floor := closedLoop(ctx, 1, 200*time.Millisecond, func(int, int) error {
			_, err := c.healthz(ctx)
			return err
		})
		t.addLoop("/healthz probes", floor)
		res.set("serve.healthz_us", percentile(floor.LatMS, 50)*1e3, "us")
	}
	loop = use(c)
	st, err := c.healthz(ctx)
	if err != nil {
		return nil, loop, err
	}
	t.check(st.CellsSimulated == 0, "the restarted server simulated %d cells", st.CellsSimulated)
	if o.traceFile != "" {
		if counts, _, err = scrape(ctx, srv); err != nil {
			return nil, loop, err
		}
		if evs, rerr := readTrace(o.traceFile); rerr == nil && len(evs) > 0 {
			t.check(false, "the warm server traced %d freshly simulated cells", len(evs))
		}
	}
	return counts, loop, errors.Join(err, ctx.Err())
}
