// Command benchmark is the repository's performance instrument: four
// workloads driven through the public bufferqoe.Session API and a
// spawned `qoebench -serve`, seven end-to-end metrics, per-layer
// probes and a traced run. BENCHMARK.json at the module root records
// the command, the workloads, and each metric's unit, direction and
// regression bound; README.md in this directory explains the method.
//
//	go run ./benchmark                       every workload, end to end
//	go run ./benchmark -workload serve_warm  one workload
//	go run ./benchmark -trace 1              per-layer metrics and span files
//	go run ./benchmark -selfcheck            two sets back to back against the bounds
//	go run ./benchmark -compare a.json -against b.json
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"bufferqoe"
)

// runConfig is what one run of one workload is told.
type runConfig struct {
	seed    uint64
	seconds time.Duration
	trace   bool
	// smoke turns the run into the harness's own test, not a
	// measurement: every grid narrowed to one buffer, one short
	// repetition per cell, one set-up, quick probes, no pinned digests.
	smoke bool
	// root is the module root (where go.mod and BENCHMARK.json are);
	// outDir is where the built server, temporary stores and span
	// files go, inside the benchmark's own directory.
	root, outDir string
}

// options are the run options of every cell: the seed, everything
// else at the facade's defaults.
func (c runConfig) options() bufferqoe.Options {
	if c.smoke {
		return bufferqoe.Options{Seed: c.seed, Duration: 4 * time.Second, Warmup: 2 * time.Second, Reps: 1}
	}
	return bufferqoe.Options{Seed: c.seed}
}

// setups is how many times a run sets up; the median is reported.
func (c runConfig) setups() int {
	if c.smoke {
		return 1
	}
	return 3
}

// workload is one entry of the benchmark: its name and how to run it.
type workload struct {
	name string
	run  func(ctx context.Context, cfg runConfig) (*result, error)
}

func workloads() []workload {
	cold := func(def func() coldDef) func(context.Context, runConfig) (*result, error) {
		return func(ctx context.Context, cfg runConfig) (*result, error) {
			d := def()
			if cfg.smoke {
				d = d.oneBuffer()
			}
			if cfg.trace {
				return traceCold(ctx, d, cfg)
			}
			return runCold(ctx, d, cfg)
		}
	}
	return []workload{
		{"access_cold", cold(accessCold)},
		{"backbone_cold", cold(backboneCold)},
		{"offpaper_cold", cold(offpaperCold)},
		{"serve_warm", func(ctx context.Context, cfg runConfig) (*result, error) {
			if cfg.trace {
				return traceServe(ctx, cfg)
			}
			return runServe(ctx, cfg)
		}},
	}
}

// findRoot walks up from the working directory to the module root.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			if _, err := os.Stat(filepath.Join(dir, "cmd", "qoebench")); err == nil {
				return dir, nil
			}
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("benchmark: run from inside the bufferqoe module (no go.mod with cmd/qoebench above the working directory)")
		}
		dir = parent
	}
}

// listFlag collects a repeatable, comma-separable file list.
type listFlag []string

func (l *listFlag) String() string { return strings.Join(*l, ",") }
func (l *listFlag) Set(v string) error {
	for _, f := range strings.Split(v, ",") {
		if f != "" {
			*l = append(*l, f)
		}
	}
	return nil
}

// defaultSeconds is run_seconds in BENCHMARK.json: the length the
// grids and phase shares were sized for.
const defaultSeconds = 30

func main() { os.Exit(realMain()) }

func realMain() int {
	var (
		name      = flag.String("workload", "", "workload to run (access_cold, backbone_cold, offpaper_cold, serve_warm); empty runs all four")
		seed      = flag.Uint64("seed", 42, "seed the workload's inputs are made from (42 is the one expected.json pins)")
		seconds   = flag.Float64("seconds", defaultSeconds, "how long one run measures")
		trace     = flag.Int("trace", 0, "0 or 1: 1 runs the layer probes and the traced pass and reports the per-layer metrics instead of the end-to-end ones")
		out       = flag.String("out", "", "also write the full results (per-round values, digests, notes) to this JSON file")
		selfcheck = flag.Bool("selfcheck", false, "run two complete sets back to back and compare them against the bounds in BENCHMARK.json")
		compare   listFlag
		against   listFlag
	)
	flag.Var(&compare, "compare", "result files (-out) of the change; repeatable or comma-separated")
	flag.Var(&against, "against", "result files (-out) of the parent to compare with")
	flag.Parse()

	root, err := findRoot()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	if len(compare) > 0 || len(against) > 0 {
		return runCompare(root, compare, against)
	}

	cfg := runConfig{
		seed: *seed, seconds: time.Duration(*seconds * float64(time.Second)), trace: *trace != 0,
		root: root, outDir: filepath.Join(root, "benchmark", "out"),
	}
	if cfg.seconds <= 0 {
		fmt.Fprintln(os.Stderr, "benchmark: -seconds must be positive")
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "benchmark: -trace takes 0 or 1")
		return 2
	}
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	var todo []workload
	for _, w := range workloads() {
		if *name == "" || *name == w.name {
			todo = append(todo, w)
		}
	}
	if len(todo) == 0 {
		fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q\n", *name)
		return 2
	}

	// Ctrl-C and SIGTERM cancel the run; every runner stops its server
	// and removes its temporary directories on the way out.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if *selfcheck {
		if cfg.trace {
			fmt.Fprintln(os.Stderr, "benchmark: -selfcheck holds the end-to-end metrics against their bounds; run it without -trace 1")
			return 2
		}
		return runSelfcheck(ctx, todo, cfg)
	}
	results, code := runSet(ctx, todo, cfg)
	if *out != "" {
		if err := writeResults(*out, results); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 1
		}
	}
	return code
}

// runSet runs the workloads in order. Each prints its metrics by name
// and then, as its last line, the JSON object the driver reads.
func runSet(ctx context.Context, todo []workload, cfg runConfig) ([]*result, int) {
	var results []*result
	code := 0
	for _, w := range todo {
		res, err := w.run(ctx, cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", w.name, err)
			return results, 1
		}
		results = append(results, res)
		res.print(os.Stdout)
		fmt.Println(res.line())
		if !res.Correct {
			code = 1
		}
	}
	return results, code
}

func writeResults(path string, results []*result) error {
	data, err := json.MarshalIndent(results, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
