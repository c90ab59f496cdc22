// Command qoebench runs the paper's experiments by ID and prints the
// regenerated tables and heatmaps, or sweeps custom scenarios through
// the composable Scenario/Probe/Sweep API.
//
// Usage:
//
//	qoebench -list
//	qoebench -exp fig7b
//	qoebench -exp fig7a,fig7b,fig8 -json
//	qoebench -exp all -duration 60s -reps 5 -parallel 16 -timeout 10m
//	qoebench -sweep -workloads short-few,long-many -dir up -buffers 8,64,256 -progress
//	qoebench -sweep -mix "up:long=2;down:web=16x3/1.5s" -buffers 8,64,256 -probes voip,web
//	qoebench -sweep -uprate 1e9 -downrate 1e9 -aqm codel -probes voip,web -json
//	qoebench -sweep -link wifi -stations 8 -cc bbr -probes voip,video:SD
//	qoebench -sweep -workloads long-many -dir bidir -bufup 256 -probes voip
//	qoebench -recommend -workloads long-many -dir up -probes voip,web -target max-mos
//	qoebench -sweep -workloads short-few -dir up -metrics-addr localhost:6060 -trace cells.jsonl
//	qoebench -sweep -workloads long-many -dir up -store /var/cache/qoe -json
//	qoebench -sweep -workloads long-many -dir up -reps 10 -halfwidth 0.1 -json
//	qoebench -serve localhost:8080 -store /var/cache/qoe
//	qoebench -exp fig7b -cpuprofile cpu.pprof -memprofile mem.pprof
//
// With multiple experiments (or -exp all), experiments run through
// the parallel cell engine: cells fan out across -parallel workers
// (default GOMAXPROCS), configurations shared between experiments are
// simulated once, and a failing experiment is reported at the end
// instead of aborting the suite. Output and results are bit-identical
// at any parallelism.
//
// In -sweep mode the workload/buffer/probe axes are swept over one
// network: a paper testbed (-network access|backbone), a custom
// access-shaped link (-uprate/-downrate/-clientdelay/-serverdelay),
// or an 802.11 wireless last hop (-link wifi, tuned by -stations,
// -wifiretry, -wifiagg), optionally under an AQM discipline (-aqm), a
// congestion control (-cc, including the paced model-based bbr),
// last-hop jitter (-jitter), packet reordering (-reorder), and an
// asymmetric uplink buffer (-bufup). The workload axis takes Table 1 preset names
// (-workloads/-dir) or a composable custom mix (-mix, grammar in
// -list); a mix equal to a preset answers from the preset's cache
// cells. -json emits machine-readable results plus engine statistics
// in every mode.
//
// -halfwidth enables adaptive replication: a cell stops repeating
// once the 95% confidence interval of its per-repetition QoE score
// is tighter than the given half-width (in MOS points), instead of
// always running -reps repetitions; -minreps floors the rule. The
// stopping rule is part of the cell's cache identity, so adaptive
// and exhaustive runs never contaminate each other's caches, and an
// adaptive cell's repetitions are the exhaustive cell's first n.
//
// -cpuprofile/-memprofile write pprof profiles covering whichever
// mode ran, including -benchjson.
//
// In -recommend mode the buffer axis is searched, not swept: the
// adaptive recommender brackets the candidate buffers (the paper's
// sweep plus the link's BDP unless -buffers is given) and bisects for
// the -target optimum, evaluating only the buffers the search visits.
//
// -timeout bounds any mode by a wall-clock deadline: on expiry queued
// cells are abandoned (in-flight cells drain into the session cache)
// and qoebench exits non-zero. -progress streams per-cell completions
// with throughput and ETA to stderr as workers finish them.
//
// -store DIR attaches a persistent content-addressed result store:
// any cell already computed by a run sharing DIR (other processes,
// machines, CI jobs) is answered from disk instead of simulated, and
// fresh results are persisted for future runs. Entries are keyed by
// the canonical cell spec plus the engine's semantic version, so a
// store never serves values the current code would not produce.
//
// -serve ADDR turns qoebench into a long-lived HTTP/JSON service:
// POST /sweep and POST /recommend take a JSON body that fills the same
// request the -sweep/-recommend flags fill (request.go holds the
// schema) and run it on one shared session (one cache, one bounded
// worker pool), GET /healthz reports liveness and engine statistics,
// and SIGINT/SIGTERM drains in-flight requests before exiting. Pair
// with -store so the service starts warm and keeps learning.
//
// -metrics-addr serves live telemetry while the run executes:
// /metrics (Prometheus text) and /debug/pprof/ (CPU profiles carry
// per-cell scenario labels). -trace appends one
// JSON event per freshly simulated cell — its build/sim/score phase
// timings and simulator event counts — to a file; -json embeds the
// same collector snapshot under "telemetry".
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"testing"
	"time"

	"bufferqoe"
	"bufferqoe/internal/bench"
	"bufferqoe/internal/jsonenc"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// jsonReport is the -json envelope shared by all modes.
type jsonReport struct {
	Experiments []jsonExperiment          `json:"experiments,omitempty"`
	Sweep       *bufferqoe.Grid           `json:"sweep,omitempty"`
	Recommend   *bufferqoe.Recommendation `json:"recommend,omitempty"`
	Stats       jsonStats                 `json:"stats"`
	// Telemetry is the run's collector snapshot: per-phase wall time,
	// cell wall-time distribution, and simulator event/pool counters.
	Telemetry *bufferqoe.Metrics `json:"telemetry,omitempty"`
	ElapsedS  float64            `json:"elapsed_s"`
}

// telemetryOf snapshots a session's collector for the -json report.
func telemetryOf(s *bufferqoe.Session) *bufferqoe.Metrics {
	m := s.Metrics()
	return &m
}

type jsonExperiment struct {
	ID       string  `json:"id"`
	OK       bool    `json:"ok"`
	ElapsedS float64 `json:"elapsed_s"`
	Error    string  `json:"error,omitempty"`
	Text     string  `json:"text,omitempty"`
}

type jsonStats struct {
	Workers       int    `json:"workers"`
	CellsRun      uint64 `json:"cells_simulated"`
	CacheHits     uint64 `json:"cache_hits"`
	CachedCells   int    `json:"cached_cells"`
	CellsCanceled uint64 `json:"cells_canceled,omitempty"`
	// Store counters are zero (and omitted) unless -store attached a
	// persistent tier; a fully warm store shows cells_simulated 0 with
	// store_hits covering every unique cell.
	StoreHits   uint64 `json:"store_hits,omitempty"`
	StoreMisses uint64 `json:"store_misses,omitempty"`
	StoreWrites uint64 `json:"store_writes,omitempty"`
}

// appendJSON writes the stats as encoding/json indents them at the
// given depth, omitting the zero omitempty counters.
func (s jsonStats) appendJSON(b []byte, in jsonenc.Indent, depth int) []byte {
	next := in.Next(depth + 1)
	b = append(b, '{')
	b = jsonenc.AppendKey(b, in.Line(depth+1), `"workers": `)
	b = strconv.AppendInt(b, int64(s.Workers), 10)
	for _, f := range [...]struct {
		key       string
		n         uint64
		omitEmpty bool
	}{
		{`"cells_simulated": `, s.CellsRun, false},
		{`"cache_hits": `, s.CacheHits, false},
		{`"cached_cells": `, uint64(s.CachedCells), false}, // a count, never negative
		{`"cells_canceled": `, s.CellsCanceled, true},
		{`"store_hits": `, s.StoreHits, true},
		{`"store_misses": `, s.StoreMisses, true},
		{`"store_writes": `, s.StoreWrites, true},
	} {
		if f.omitEmpty && f.n == 0 {
			continue
		}
		b = jsonenc.AppendKey(b, next, f.key)
		b = strconv.AppendUint(b, f.n, 10)
	}
	b = append(b, in.Line(depth)...)
	return append(b, '}')
}

func statsOf(s *bufferqoe.Session) jsonStats {
	st := s.Stats()
	return jsonStats{
		Workers: st.Workers, CellsRun: st.Misses, CacheHits: st.Hits,
		CachedCells: st.CachedCells, CellsCanceled: st.Canceled,
		StoreHits: st.StoreHits, StoreMisses: st.StoreMisses, StoreWrites: st.StoreWrites,
	}
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("qoebench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		exp       = fs.String("exp", "", "experiment ID(s), comma-separated (see -list), or 'all'")
		list      = fs.Bool("list", false, "list experiment IDs")
		seed      = fs.Uint64("seed", 42, "random seed")
		duration  = fs.Duration("duration", 30*time.Second, "per-cell background measurement window")
		warmup    = fs.Duration("warmup", 5*time.Second, "background warmup before measuring")
		reps      = fs.Int("reps", 3, "calls/streams/fetches per cell")
		halfWidth = fs.Float64("halfwidth", 0, "adaptive replication: stop repeating a cell once its 95% CI half-width (MOS points) is at most this; 0 disables and always runs -reps repetitions")
		minReps   = fs.Int("minreps", 0, "adaptive replication: minimum repetitions before -halfwidth may stop a cell (default 2; ignored without -halfwidth)")
		clip      = fs.Int("clip", 4, "video clip length in seconds")
		flows     = fs.Int("cdnflows", 200000, "synthetic CDN population size (fig1*)")
		parallel  = fs.Int("parallel", 0, "cell worker-pool size (0 = GOMAXPROCS)")
		jsonOut   = fs.Bool("json", false, "emit machine-readable JSON results and engine stats")
		timeout   = fs.Duration("timeout", 0, "overall wall-clock deadline; on expiry queued cells are abandoned and the run exits non-zero (0 = none)")
		progress  = fs.Bool("progress", false, "print per-cell completion progress with rate and ETA to stderr (-sweep and -recommend modes)")

		storeDir  = fs.String("store", "", "persistent result store directory: cells computed by any prior run sharing it are answered from disk instead of simulated, and fresh results persist for future runs")
		serveAddr = fs.String("serve", "", "run as a long-lived HTTP/JSON service on this address (POST /sweep, POST /recommend, GET /healthz); pair with -store for a disk-warm cache")

		metricsAddr = fs.String("metrics-addr", "", "serve live telemetry on this address during the run: /metrics (Prometheus text), /debug/pprof/ (e.g. localhost:6060)")
		traceFile   = fs.String("trace", "", "append one JSON trace event per freshly simulated cell to this file (build/sim/score phase timings, simulator event counts)")

		sweep     = fs.Bool("sweep", false, "sweep scenarios instead of running paper experiments")
		recommend = fs.Bool("recommend", false, "search the buffer axis for the -target optimum instead of sweeping it exhaustively")

		benchJSON = fs.String("benchjson", "", "run the canonical perf benchmarks and write JSON results to this file (e.g. BENCH_3.json); all other modes are skipped")

		cpuProfile = fs.String("cpuprofile", "", "write a CPU profile of the run to this file (go tool pprof)")
		memProfile = fs.String("memprofile", "", "write a heap profile at the end of the run to this file (go tool pprof)")
	)
	var q request // the -sweep/-recommend axes
	q.bind(fs)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *list {
		printList(stdout)
		return 0
	}

	// Profiles cover every mode, including -benchjson, so a perf
	// regression spotted in a BENCH artifact can be profiled with the
	// exact same command plus one flag.
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintf(stderr, "qoebench: -cpuprofile: %v\n", err)
			return 2
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(stderr, "qoebench: -cpuprofile: %v\n", err)
			f.Close()
			return 2
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintf(stderr, "qoebench: -memprofile: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC() // settle live-heap accounting before the snapshot
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(stderr, "qoebench: -memprofile: %v\n", err)
			}
		}()
	}

	if *benchJSON != "" {
		return runBenchJSON(*benchJSON, stdout, stderr)
	}

	session := bufferqoe.NewSession()
	session.SetParallelism(*parallel)
	opt := bufferqoe.Options{
		Seed:        *seed,
		Duration:    *duration,
		Warmup:      *warmup,
		Reps:        *reps,
		ClipSeconds: *clip,
		CDNFlows:    *flows,
		CIHalfWidth: *halfWidth,
		MinReps:     *minReps,
	}
	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	if *progress && !*sweep && !*recommend {
		fmt.Fprintln(stderr, "qoebench: -progress requires -sweep or -recommend")
		return 2
	}
	if *progress {
		opt.OnProgress = func(p bufferqoe.Progress) {
			line := fmt.Sprintf("progress: %d/%d %s/%s@%d",
				p.Completed, p.Total, p.Cell.Scenario, p.Cell.Probe, p.Cell.Buffer)
			if p.Rate > 0 {
				line += fmt.Sprintf(" (%.1f cells/s, eta %s)", p.Rate, p.ETA.Round(time.Second))
			}
			fmt.Fprintln(stderr, line)
		}
	}

	// Telemetry: a collector is attached when any output wants it —
	// the metrics endpoint, a trace file, or the -json report. Without
	// one the run takes the engine's collector-off fast paths.
	var col *bufferqoe.Collector
	if *metricsAddr != "" || *traceFile != "" || *jsonOut {
		col = bufferqoe.NewCollector()
		session.SetCollector(col)
	}
	if *traceFile != "" {
		f, err := os.OpenFile(*traceFile, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			fmt.Fprintf(stderr, "qoebench: -trace: %v\n", err)
			return 2
		}
		defer f.Close()
		col.TraceTo(f)
	}
	if *metricsAddr != "" {
		bound, stop, err := startMetricsServer(*metricsAddr, col)
		if err != nil {
			fmt.Fprintf(stderr, "qoebench: -metrics-addr: %v\n", err)
			return 2
		}
		defer stop()
		fmt.Fprintf(stderr, "qoebench: serving /metrics, /debug/pprof/ on http://%s\n", bound)
	}

	if *storeDir != "" {
		if err := session.OpenStore(*storeDir); err != nil {
			fmt.Fprintf(stderr, "qoebench: -store: %v\n", err)
			return 2
		}
		// Deferred (not inline per mode) so every exit path — including
		// serve-mode shutdown — flushes queued writes to disk.
		defer func() {
			if err := session.CloseStore(); err != nil {
				fmt.Fprintf(stderr, "qoebench: -store close: %v\n", err)
			}
		}()
	}

	if *serveAddr != "" {
		if *exp != "" || *sweep || *recommend {
			fmt.Fprintln(stderr, "qoebench: -serve runs a service; it is exclusive with -exp/-sweep/-recommend")
			return 2
		}
		return runServe(*serveAddr, session, opt, stderr)
	}

	if *sweep || *recommend {
		if *exp != "" {
			fmt.Fprintln(stderr, "qoebench: -sweep/-recommend and -exp are mutually exclusive")
			return 2
		}
		if *sweep && *recommend {
			fmt.Fprintln(stderr, "qoebench: -sweep and -recommend are mutually exclusive")
			return 2
		}
		if *recommend {
			return runRecommend(ctx, session, opt, &q, *jsonOut, stdout, stderr)
		}
		return runSweep(ctx, session, opt, &q, *jsonOut, stdout, stderr)
	}

	if *exp == "" {
		fmt.Fprintln(stderr, "qoebench: -exp, -sweep, or -recommend required (or -list)")
		return 2
	}
	ids := splitList(*exp)
	if len(ids) == 0 {
		fmt.Fprintf(stderr, "qoebench: -exp %q names no experiments\n", *exp)
		return 2
	}
	if len(ids) == 1 && ids[0] == "all" {
		ids = bufferqoe.Experiments()
	}

	start := time.Now()
	outcomes := session.RunAllCtx(ctx, ids, opt)
	total := time.Since(start)

	var failed []bufferqoe.Outcome
	report := jsonReport{ElapsedS: total.Seconds()}
	for _, oc := range outcomes {
		je := jsonExperiment{ID: oc.ID, OK: oc.Err == nil, ElapsedS: oc.Elapsed.Seconds()}
		if oc.Err != nil {
			je.Error = oc.Err.Error()
			failed = append(failed, oc)
		} else {
			je.Text = oc.Result.Text
			if !*jsonOut {
				fmt.Fprintf(stdout, "# %s (%.1fs)\n%s\n", oc.ID, oc.Elapsed.Seconds(), oc.Result.Text)
			}
		}
		report.Experiments = append(report.Experiments, je)
	}

	st := session.Stats()
	report.Stats = statsOf(session)
	if *jsonOut {
		report.Telemetry = telemetryOf(session)
		emitJSON(stdout, stderr, report)
	} else {
		fmt.Fprintf(stdout, "# summary: %d/%d experiments ok in %.1fs (%d workers; %d cells simulated, %d cache hits)\n",
			len(outcomes)-len(failed), len(outcomes), total.Seconds(),
			st.Workers, st.Misses, st.Hits)
	}
	if len(failed) > 0 {
		for _, oc := range failed {
			fmt.Fprintf(stderr, "qoebench: FAILED %s after %.1fs: %v\n",
				oc.ID, oc.Elapsed.Seconds(), oc.Err)
		}
		return 1
	}
	return 0
}

// runSweep runs the grid q compiles to. A request that does not
// compile is a flag-level mistake (exit 2); a run the facade rejects
// or the deadline cuts exits 1.
func runSweep(ctx context.Context, session *bufferqoe.Session, opt bufferqoe.Options, q *request, jsonOut bool, stdout, stderr io.Writer) int {
	sw, err := q.sweep()
	if err != nil {
		fmt.Fprintf(stderr, "qoebench: %v\n", err)
		return 2
	}
	start := time.Now()
	grid, err := session.SweepCtx(ctx, sw, opt)
	if err != nil {
		fmt.Fprintf(stderr, "qoebench: %v\n", err)
		if errors.Is(err, bufferqoe.ErrCanceled) {
			fmt.Fprintln(stderr, "qoebench: deadline exceeded; queued cells abandoned (raise -timeout or shrink the grid)")
		}
		return 1
	}
	total := time.Since(start)

	st := session.Stats()
	if jsonOut {
		emitJSON(stdout, stderr, jsonReport{
			Sweep:     grid,
			Stats:     statsOf(session),
			Telemetry: telemetryOf(session),
			ElapsedS:  total.Seconds(),
		})
		return 0
	}
	fmt.Fprint(stdout, grid.Text())
	fmt.Fprintf(stdout, "# summary: %d cells in %.1fs (%d workers; %d simulated, %d cache hits)\n",
		len(grid.Cells), total.Seconds(), st.Workers, st.Misses, st.Hits)
	return 0
}

// runRecommend searches the buffer axis instead of sweeping it: the
// one -workloads entry (or -mix) names the scenario, -buffers (or the
// paper's sweep bracketed by the link's BDP) is the candidate axis,
// and -target picks the optimization goal. Exit codes are runSweep's.
func runRecommend(ctx context.Context, session *bufferqoe.Session, opt bufferqoe.Options, q *request, jsonOut bool, stdout, stderr io.Writer) int {
	spec, err := q.recommend()
	if err != nil {
		fmt.Fprintf(stderr, "qoebench: %v\n", err)
		return 2
	}

	start := time.Now()
	rec, err := session.Recommend(ctx, spec, opt)
	if err != nil {
		fmt.Fprintf(stderr, "qoebench: %v\n", err)
		return 1
	}
	total := time.Since(start)

	st := session.Stats()
	if jsonOut {
		emitJSON(stdout, stderr, jsonReport{
			Recommend: rec,
			Stats:     statsOf(session),
			Telemetry: telemetryOf(session),
			ElapsedS:  total.Seconds(),
		})
		return 0
	}
	fmt.Fprintf(stdout, "recommended buffer: %d packets (aggregate MOS %.2f, threshold met: %v)\n",
		rec.Buffer, rec.Score, rec.Met)
	for _, c := range rec.Cells {
		fmt.Fprintf(stdout, "  %-12s %s\n", c.Probe, decidedRating(c))
	}
	fmt.Fprintf(stdout, "nearest paper scheme: %s (%d packets, max delay %s)\n",
		rec.Scheme.Name, rec.Scheme.Packets, rec.Scheme.MaxDelay)
	fmt.Fprintf(stdout, "# summary: evaluated %d of %d grid cells (buffers tried: %v) in %.1fs (%d simulated, %d cache hits)\n",
		rec.CellsEvaluated, rec.GridCells, rec.BuffersTried, total.Seconds(), st.Misses, st.Hits)
	return 0
}

// decidedRating is the rating of the direction a recommendation scored
// the cell by: the worse one of an access VoIP cell's two, labeled,
// and the cell's only rating otherwise.
func decidedRating(c bufferqoe.SweepCell) string {
	switch {
	case c.TalkRating == "":
		return c.Rating
	case c.TalkMOS > 0 && c.TalkMOS < c.MOS:
		return c.TalkRating + " (talk)"
	}
	return c.Rating + " (listen)"
}

// benchEntry is one benchmark's measurement in the -benchjson output.
type benchEntry struct {
	Name        string  `json:"name"`
	N           int     `json:"n"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
}

// benchReport is the envelope written to the -benchjson file; BENCH_*
// trajectory artifacts embed snapshots of this shape.
type benchReport struct {
	GeneratedBy string       `json:"generated_by"`
	GoVersion   string       `json:"go_version"`
	GOOS        string       `json:"goos"`
	GOARCH      string       `json:"goarch"`
	Benchmarks  []benchEntry `json:"benchmarks"`
}

// runBenchJSON runs the canonical benchmarks from internal/bench via
// testing.Benchmark and writes the measurements as JSON, so the perf
// trajectory can be recorded per PR without a test harness.
func runBenchJSON(path string, stdout, stderr io.Writer) int {
	report := benchReport{
		GeneratedBy: "qoebench -benchjson",
		GoVersion:   runtime.Version(),
		GOOS:        runtime.GOOS,
		GOARCH:      runtime.GOARCH,
	}
	for _, bm := range []struct {
		name string
		fn   func(*testing.B)
	}{
		{"SimCoreHandler", bench.SimCoreHandler},
		{"LinkForward", bench.LinkForward},
		{"WholeCell", bench.WholeCell},
		{"WholeCellTelemetry", bench.WholeCellTelemetry},
		{"TestbedBuild", bench.TestbedBuild},
		{"WifiCell", bench.WifiCell},
		{"PacedCell", bench.PacedCell},
		{"StatsAccumulate", bench.StatsAccumulate},
		{"CellRepLoop", bench.CellRepLoop},
	} {
		r := testing.Benchmark(bm.fn)
		if r.N == 0 {
			// testing.Benchmark returns the zero result when the
			// benchmark aborts (b.Fatal); a zero row would report 0
			// allocs/op and pass regression budgets it should fail.
			fmt.Fprintf(stderr, "qoebench: benchmark %s failed (zero result)\n", bm.name)
			return 1
		}
		e := benchEntry{
			Name:        bm.name,
			N:           r.N,
			NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
			AllocsPerOp: r.AllocsPerOp(),
			BytesPerOp:  r.AllocedBytesPerOp(),
		}
		report.Benchmarks = append(report.Benchmarks, e)
		fmt.Fprintf(stdout, "%-16s %10d ops %14.1f ns/op %10d B/op %8d allocs/op\n",
			e.Name, e.N, e.NsPerOp, e.BytesPerOp, e.AllocsPerOp)
	}
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintf(stderr, "qoebench: %v\n", err)
		return 1
	}
	defer f.Close()
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(report); err != nil {
		fmt.Fprintf(stderr, "qoebench: encoding %s: %v\n", path, err)
		return 1
	}
	fmt.Fprintf(stdout, "# wrote %s\n", path)
	return 0
}

func emitJSON(stdout, stderr io.Writer, report jsonReport) {
	enc := json.NewEncoder(stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(report); err != nil {
		fmt.Fprintf(stderr, "qoebench: encoding JSON: %v\n", err)
	}
}

// printList prints every discoverable axis — experiments, networks
// with their paper buffer sweeps, workload presets with component
// breakdowns, probes, AQMs, congestion controls, and the custom-mix
// grammar — so valid flag values never require reading source.
func printList(stdout io.Writer) {
	fmt.Fprintln(stdout, "experiments (-exp):")
	for _, id := range bufferqoe.Experiments() {
		fmt.Fprintf(stdout, "  %s\n", id)
	}
	fmt.Fprintln(stdout, "networks (-network), with the paper's buffer sweeps (-buffers default):")
	fmt.Fprintf(stdout, "  %-9s DSL 1 Mbit/s up / 16 Mbit/s down (Figure 3a); buffers: %s\n",
		"access", joinInts(bufferqoe.BufferSizes(bufferqoe.Access), " "))
	fmt.Fprintf(stdout, "  %-9s OC3 155 Mbit/s, 30 ms delay (Figure 3b); buffers: %s\n",
		"backbone", joinInts(bufferqoe.BufferSizes(bufferqoe.Backbone), " "))
	for _, net := range []bufferqoe.Network{bufferqoe.Access, bufferqoe.Backbone} {
		fmt.Fprintf(stdout, "workload presets (-workloads, %s):\n", net)
		for _, name := range bufferqoe.Scenarios(net) {
			w, err := bufferqoe.PresetWorkload(net, name)
			if err != nil {
				continue
			}
			fmt.Fprintf(stdout, "  %-15s %s\n", name, w)
		}
	}
	fmt.Fprintln(stdout, "probes (-probes): voip, web, video:SD, video:HD")
	fmt.Fprintln(stdout, "aqms (-aqm): droptail (default), codel, fq-codel, red, ared, pie")
	fmt.Fprintln(stdout, "congestion controls (-cc): default (cubic on access, reno on backbone), cubic, reno, bic, bbr")
	fmt.Fprintln(stdout, "links (-link): wired (default; customize with -uprate/-downrate/-clientdelay/-serverdelay), wifi (802.11 MAC last hop; -stations, -wifiretry, -wifiagg); -reorder adds packet reordering to either")
	fmt.Fprintln(stdout, `mix grammar (-mix): "up:long=2;down:web=16x3/1.5s" — components long=n[xm] (bulk flows) and web=n[xm]/think (web sessions), sections joined by ';', optional scale=n`)
	fmt.Fprintln(stdout, "hotpath-audited packages (//qoe:hotpath, enforced by 'go vet -vettool=qoelint'): internal/sim (event dispatch, timer heap), internal/netem (link transmit/deliver), internal/tcp (segment emit/receive), internal/mac (802.11 TXOP), internal/telemetry (record primitives)")
}

func joinInts(xs []int, sep string) string {
	var b strings.Builder
	for i, x := range xs {
		if i > 0 {
			b.WriteString(sep)
		}
		fmt.Fprintf(&b, "%d", x)
	}
	return b.String()
}

// splitList splits a comma-separated flag, dropping empty entries.
func splitList(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if part = strings.TrimSpace(part); part != "" {
			out = append(out, part)
		}
	}
	return out
}
