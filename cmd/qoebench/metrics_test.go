package main

import (
	"encoding/json"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"bufferqoe"
)

// TestMetricsServer: the -metrics-addr server exposes Prometheus
// text reflecting a sweep run on the observed session and the pprof
// index — and nothing else (the expvar twin of /metrics is gone).
func TestMetricsServer(t *testing.T) {
	col := bufferqoe.NewCollector()
	addr, stop, err := startMetricsServer("127.0.0.1:0", col)
	if err != nil {
		t.Fatal(err)
	}
	defer stop()

	s := bufferqoe.NewSession()
	s.SetCollector(col)
	sw := bufferqoe.Sweep{
		Scenarios: []bufferqoe.Scenario{{Workload: "noBG"}},
		Buffers:   []int{8, 64},
		Probes:    []bufferqoe.Probe{{Media: bufferqoe.VoIP}},
	}
	if _, err := s.Sweep(sw, bufferqoe.Options{Seed: 5, Warmup: 2e9, Reps: 1}); err != nil {
		t.Fatal(err)
	}

	get := func(path string) string {
		t.Helper()
		resp, err := http.Get("http://" + addr + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: %s\n%s", path, resp.Status, body)
		}
		return string(body)
	}

	prom := get("/metrics")
	for _, want := range []string{"qoe_cells_simulated_total 2", "qoe_sweep_cells_total 2", "qoe_cell_wall_seconds_bucket"} {
		if !strings.Contains(prom, want) {
			t.Fatalf("/metrics missing %q:\n%s", want, prom)
		}
	}

	resp, err := http.Get("http://" + addr + "/debug/vars")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("GET /debug/vars = %s, want 404", resp.Status)
	}

	if idx := get("/debug/pprof/"); !strings.Contains(idx, "goroutine") {
		t.Fatalf("pprof index unexpected:\n%s", idx)
	}
}

// TestMetricsAddrAndTraceFlags: the CLI flags wire a collector end to
// end — the sweep serves metrics while running and appends one trace
// event per simulated cell.
func TestMetricsAddrAndTraceFlags(t *testing.T) {
	trace := filepath.Join(t.TempDir(), "trace.jsonl")
	_, errOut, code := runCLI(t, "-sweep", "-workloads", "noBG", "-buffers", "8",
		"-probes", "voip", "-metrics-addr", "127.0.0.1:0", "-trace", trace)
	if code != 0 {
		t.Fatalf("code=%d stderr=%q", code, errOut)
	}
	if !strings.Contains(errOut, "serving /metrics") {
		t.Fatalf("no metrics-server banner on stderr: %q", errOut)
	}
	data, err := os.ReadFile(trace)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	if len(lines) != 1 {
		t.Fatalf("trace has %d events, want 1:\n%s", len(lines), data)
	}
	var ev map[string]any
	if err := json.Unmarshal([]byte(lines[0]), &ev); err != nil {
		t.Fatal(err)
	}
	if ev["kind"] != "cell" || ev["sim_ms"] == nil {
		t.Fatalf("trace event malformed: %v", ev)
	}
}

// TestJSONTelemetryBlock: -json reports include the collector
// snapshot.
func TestJSONTelemetryBlock(t *testing.T) {
	out, _, code := runCLI(t, "-sweep", "-workloads", "noBG", "-buffers", "8",
		"-probes", "voip", "-json")
	if code != 0 {
		t.Fatalf("code=%d out=%q", code, out)
	}
	var rep struct {
		Telemetry *bufferqoe.Metrics `json:"telemetry"`
	}
	if err := json.Unmarshal([]byte(out), &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Telemetry == nil || rep.Telemetry.CellsSimulated != 1 || rep.Telemetry.SimEvents == 0 {
		t.Fatalf("telemetry block = %+v", rep.Telemetry)
	}
}
