package main

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"
)

func smokeConfig(t *testing.T, trace bool) runConfig {
	t.Helper()
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	// The built server and the temporary stores go to a directory the
	// test framework removes, not to benchmark/out.
	return runConfig{seed: 7, seconds: time.Second, trace: trace, smoke: true, root: root, outDir: t.TempDir()}
}

func names[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for n := range m {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Every workload runs on a one-buffer slice, passes its own checks,
// and reports exactly the metrics BENCHMARK.json names — the
// end-to-end ones untraced, the per-layer ones traced — each with the
// unit recorded there.
func TestSmokeEveryWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates cells and spawns qoebench -serve")
	}
	m, err := loadManifest(smokeConfig(t, false).root)
	if err != nil {
		t.Fatal(err)
	}
	want := func(specs []metricSpec) map[string]string {
		out := map[string]string{}
		for _, s := range specs {
			out[s.Name] = s.Unit
		}
		return out
	}
	var listed []string
	for _, w := range m.Workloads {
		listed = append(listed, w.Name)
	}
	var have []string
	for _, w := range workloads() {
		have = append(have, w.name)
	}
	if strings.Join(listed, ",") != strings.Join(have, ",") {
		t.Fatalf("BENCHMARK.json lists workloads %v, the benchmark has %v", listed, have)
	}

	for _, w := range workloads() {
		for _, traced := range []bool{false, true} {
			// The three cold workloads share one traced runner and the
			// layer probes are the same for all; tracing one of them and
			// the server keeps the test short.
			if traced && w.name != "access_cold" && w.name != "serve_warm" {
				continue
			}
			cfg := smokeConfig(t, traced)
			res, err := w.run(context.Background(), cfg)
			if err != nil {
				t.Fatalf("%s (trace %v): %v", w.name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s (trace %v): %d failed of %d: %v", w.name, traced, res.Failed, res.Attempted, res.Notes)
			}
			units := want(m.EndToEnd)
			if traced {
				units = want(m.PerLayer)
			}
			if got, exp := strings.Join(names(res.Metrics), " "), strings.Join(names(units), " "); got != exp {
				t.Errorf("%s (trace %v) reports\n  %s\nBENCHMARK.json names\n  %s", w.name, traced, got, exp)
			}
			for n, mt := range res.Metrics {
				if units[n] != mt.Unit {
					t.Errorf("%s: %s reported in %q, BENCHMARK.json says %q", w.name, n, mt.Unit, units[n])
				}
				if !traced && mt.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, must never be 0", w.name, n, mt.Value)
				}
			}
			var line struct {
				Correct   *bool             `json:"correct"`
				Attempted *int              `json:"attempted"`
				Failed    *int              `json:"failed"`
				Metrics   map[string]metric `json:"metrics"`
			}
			if err := json.Unmarshal([]byte(res.line()), &line); err != nil || line.Correct == nil || line.Attempted == nil || line.Failed == nil || len(line.Metrics) != len(res.Metrics) {
				t.Errorf("%s: result line %q does not carry correct, attempted, failed and metrics (%v)", w.name, res.line(), err)
			}
			if traced {
				data, err := os.ReadFile(spanFile(cfg, w.name))
				if err != nil {
					t.Fatalf("%s: no span file: %v", w.name, err)
				}
				var doc struct {
					Spans []span `json:"spans"`
				}
				if err := json.Unmarshal(data, &doc); err != nil {
					t.Fatalf("%s: span file: %v", w.name, err)
				}
				seen := map[string]bool{}
				for _, s := range doc.Spans {
					seen[s.Name] = true
					if s.End < s.Start || s.SelfNS < 0 {
						t.Errorf("%s: span %+v runs backwards", w.name, s)
					}
				}
				for _, n := range []string{"workload", "round", "cell", "build", "sim", "score"} {
					if !seen[n] {
						t.Errorf("%s: no %q span in the trace", w.name, n)
					}
				}
				if call := map[bool]string{true: "http.request", false: "session.sweep"}[w.name == "serve_warm"]; !seen[call] {
					t.Errorf("%s: no %q span in the trace", w.name, call)
				}
			}
			if left, _ := filepath.Glob(filepath.Join(cfg.outDir, "serve-*")); len(left) > 0 {
				t.Errorf("%s left temporary directories behind: %v", w.name, left)
			}
		}
	}
}

// The pinned digests are for the engine version and seed they name,
// and cover every workload.
func TestExpectedDigestsCoverWorkloads(t *testing.T) {
	exp, err := loadExpected()
	if err != nil {
		t.Fatal(err)
	}
	if exp.Seed != 42 {
		t.Errorf("expected.json pins seed %d, the default seed is 42", exp.Seed)
	}
	for _, w := range workloads() {
		if len(exp.Digests[w.name]) == 0 {
			t.Errorf("expected.json pins nothing for %s", w.name)
		}
	}
}
