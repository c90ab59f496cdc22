package main

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"bufferqoe"
)

// tinyArgs shrink simulation work for CLI tests.
var tinyArgs = []string{"-seed", "5", "-duration", "4s", "-warmup", "2s", "-reps", "1", "-clip", "1", "-cdnflows", "20000"}

func runCLI(t *testing.T, args ...string) (string, string, int) {
	t.Helper()
	var out, errb bytes.Buffer
	code := run(append(append([]string(nil), args...), tinyArgs...), &out, &errb)
	return out.String(), errb.String(), code
}

func TestList(t *testing.T) {
	out, _, code := runCLI(t, "-list")
	if code != 0 || !strings.Contains(out, "fig7b") || !strings.Contains(out, "table1") {
		t.Fatalf("code=%d out=%q", code, out)
	}
	// -list must also expose every sweep axis: networks with their
	// paper buffer sweeps, workload presets with component breakdowns,
	// probes, AQMs, CCs, and the mix grammar.
	for _, want := range []string{
		"access", "backbone", "8 16 32 64 128 256", "8 28 749 7490",
		"long-many", "8 long-lived flow(s); down: 64 long-lived flow(s)",
		"short-overload", "2304 web loop(s), think 1.2s",
		"video:SD", "fq-codel", "reno", "mix grammar", "up:long=2;down:web=16x3/1.5s",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("-list output missing %q:\n%s", want, out)
		}
	}
}

// TestSweepMix drives the composable workload axis from the CLI: a
// custom mix sweeps end to end, and a mix equal to a Table 1 preset
// labels — and caches — as the preset.
func TestSweepMix(t *testing.T) {
	out, errOut, code := runCLI(t,
		"-sweep", "-mix", "up:long=2;down:web=16x3/1.5s",
		"-buffers", "16,64", "-probes", "voip")
	if code != 0 {
		t.Fatalf("exit code %d, stderr %q", code, errOut)
	}
	for _, want := range []string{"access/mix(up:long=2;down:web=48/1.5s)", "2 cells", "2 simulated"} {
		if !strings.Contains(out, want) {
			t.Fatalf("mix sweep output missing %q:\n%s", want, out)
		}
	}
	// Preset-equal mix: the label is the preset's.
	out, errOut, code = runCLI(t,
		"-sweep", "-mix", "up:long=8", "-buffers", "16", "-probes", "voip")
	if code != 0 {
		t.Fatalf("preset-equal mix: exit code %d, stderr %q", code, errOut)
	}
	if !strings.Contains(out, "access/long-many/up") {
		t.Fatalf("preset-equal mix not folded onto the preset label:\n%s", out)
	}
}

func TestSweepMixBadFlags(t *testing.T) {
	if _, errOut, code := runCLI(t, "-sweep", "-mix", "up:warp=9", "-buffers", "16", "-probes", "voip"); code != 2 ||
		!strings.Contains(errOut, "unknown kind") {
		t.Fatalf("bad mix: code %d, stderr %q", code, errOut)
	}
	if _, _, code := runCLI(t, "-sweep", "-mix", "up:long=2", "-workloads", "short-few", "-buffers", "16", "-probes", "voip"); code != 2 {
		t.Fatalf("-mix with -workloads: code %d, want 2", code)
	}
	if _, _, code := runCLI(t, "-sweep", "-mix", "up:long=2", "-dir", "up", "-buffers", "16", "-probes", "voip"); code != 2 {
		t.Fatalf("-mix with -dir: code %d, want 2", code)
	}
	// Backbone mixes are downstream-only; the facade rejects upstream
	// components at validation (exit 1, an API-level error).
	if _, errOut, code := runCLI(t, "-sweep", "-network", "backbone", "-mix", "up:long=2", "-buffers", "100", "-probes", "web"); code != 1 ||
		!strings.Contains(errOut, "downstream-only") {
		t.Fatalf("backbone upstream mix: code %d, stderr %q", code, errOut)
	}
}

// TestSweepBufUp drives the asymmetric-buffer override from the CLI.
func TestSweepBufUp(t *testing.T) {
	out, errOut, code := runCLI(t,
		"-sweep", "-workloads", "long-many", "-dir", "up", "-bufup", "256",
		"-buffers", "16", "-probes", "voip")
	if code != 0 {
		t.Fatalf("exit code %d, stderr %q", code, errOut)
	}
	if !strings.Contains(out, "access/long-many/up+bufup=256") {
		t.Fatalf("bufup label missing:\n%s", out)
	}
	// The backbone has no uplink buffer.
	if _, errOut, code := runCLI(t, "-sweep", "-network", "backbone", "-workloads", "long", "-bufup", "8", "-buffers", "100", "-probes", "web"); code != 1 ||
		!strings.Contains(errOut, "access testbed only") {
		t.Fatalf("backbone bufup: code %d, stderr %q", code, errOut)
	}
}

func TestCommaSeparatedExperiments(t *testing.T) {
	out, _, code := runCLI(t, "-exp", "fig1a,fig1b,table2")
	if code != 0 {
		t.Fatalf("exit code %d", code)
	}
	for _, want := range []string{"# fig1a", "# fig1b", "# table2", "3/3 experiments ok"} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
}

func TestFailedExperimentExitCode(t *testing.T) {
	out, errOut, code := runCLI(t, "-exp", "table2,bogus")
	if code != 1 {
		t.Fatalf("exit code %d, want 1", code)
	}
	if !strings.Contains(out, "# table2") || !strings.Contains(errOut, "FAILED bogus") {
		t.Fatalf("out=%q err=%q", out, errOut)
	}
}

func TestJSONExperiments(t *testing.T) {
	out, _, code := runCLI(t, "-exp", "fig1a,fig1b", "-json")
	if code != 0 {
		t.Fatalf("exit code %d", code)
	}
	var report jsonReport
	if err := json.Unmarshal([]byte(out), &report); err != nil {
		t.Fatalf("bad JSON: %v\n%s", err, out)
	}
	if len(report.Experiments) != 2 || !report.Experiments[0].OK || report.Experiments[0].Text == "" {
		t.Fatalf("report = %+v", report)
	}
	// fig1a and fig1b share the CDN population cell.
	if report.Stats.CacheHits == 0 || report.Stats.CellsRun == 0 {
		t.Fatalf("stats = %+v", report.Stats)
	}
}

// TestSweepCustomLink is the CLI half of the custom-link acceptance
// check: a non-paper rate with a non-paper AQM, end to end.
func TestSweepCustomLink(t *testing.T) {
	out, errOut, code := runCLI(t,
		"-sweep", "-uprate", "1e9", "-downrate", "1e9",
		"-clientdelay", "2ms", "-serverdelay", "10ms",
		"-aqm", "codel", "-workloads", "noBG,short-few", "-dir", "up",
		"-buffers", "16,64", "-probes", "voip,web")
	if code != 0 {
		t.Fatalf("exit code %d, stderr %q", code, errOut)
	}
	for _, want := range []string{"custom(1G/1G@2ms/10ms)/noBG", "custom(1G/1G@2ms/10ms)/short-few/up+codel", "voip", "web", "8 cells"} {
		if !strings.Contains(out, want) {
			t.Fatalf("sweep output missing %q:\n%s", want, out)
		}
	}
}

// TestSweepWifiBBR drives the wireless axes from the CLI: the wifi
// preset link with tuned contention/aggregation, BBR congestion
// control, and reordering sweep end to end and label accordingly.
func TestSweepWifiBBR(t *testing.T) {
	out, errOut, code := runCLI(t,
		"-sweep", "-link", "wifi", "-stations", "2", "-wifiagg", "8",
		"-cc", "bbr", "-reorder", "0.01",
		"-buffers", "16", "-probes", "voip")
	if code != 0 {
		t.Fatalf("exit code %d, stderr %q", code, errOut)
	}
	for _, want := range []string{"custom(65M/65M@2ms/15ms+wifi2+ro0.01)/noBG+bbr", "1 cells"} {
		if !strings.Contains(out, want) {
			t.Fatalf("wifi sweep output missing %q:\n%s", want, out)
		}
	}
}

func TestSweepWifiBadFlags(t *testing.T) {
	// Wifi knobs without the wifi link family must be rejected, not
	// silently ignored on a wired cell.
	if _, _, code := runCLI(t, "-sweep", "-stations", "4", "-buffers", "16", "-probes", "voip"); code != 2 {
		t.Fatalf("orphan -stations: code %d", code)
	}
	if _, _, code := runCLI(t, "-sweep", "-link", "token-ring", "-buffers", "16", "-probes", "voip"); code != 2 {
		t.Fatalf("unknown -link: code %d", code)
	}
	if _, _, code := runCLI(t, "-sweep", "-link", "wifi", "-stations", "-3", "-buffers", "16", "-probes", "voip"); code != 1 {
		t.Fatalf("negative stations: code %d", code)
	}
	if _, _, code := runCLI(t, "-sweep", "-reorder", "1.5", "-buffers", "16", "-probes", "voip"); code != 1 {
		t.Fatalf("reorder out of range: code %d", code)
	}
	if _, _, code := runCLI(t, "-sweep", "-cc", "vegas", "-buffers", "16", "-probes", "voip"); code != 1 {
		t.Fatalf("unknown cc: code %d", code)
	}
}

func TestSweepJSON(t *testing.T) {
	out, _, code := runCLI(t,
		"-sweep", "-uprate", "1e9", "-downrate", "1e9",
		"-buffers", "16", "-probes", "web", "-json")
	if code != 0 {
		t.Fatalf("exit code %d", code)
	}
	var report jsonReport
	if err := json.Unmarshal([]byte(out), &report); err != nil {
		t.Fatalf("bad JSON: %v\n%s", err, out)
	}
	if report.Sweep == nil || len(report.Sweep.Cells) != 1 {
		t.Fatalf("sweep report = %+v", report)
	}
	c := report.Sweep.Cells[0]
	if c.Metric != "plt_s" || c.Value <= 0 || c.Rating == "" {
		t.Fatalf("cell = %+v", c)
	}
	if report.Stats.CellsRun != 1 {
		t.Fatalf("stats = %+v", report.Stats)
	}
}

func TestSweepBadFlags(t *testing.T) {
	if _, _, code := runCLI(t, "-sweep", "-network", "carrier-pigeon"); code != 2 {
		t.Fatalf("bad network: code %d", code)
	}
	if _, _, code := runCLI(t, "-sweep", "-buffers", "8,oops"); code != 2 {
		t.Fatalf("bad buffers: code %d", code)
	}
	if _, _, code := runCLI(t, "-sweep", "-probes", "telepathy"); code != 2 {
		t.Fatalf("bad probes: code %d", code)
	}
	if _, _, code := runCLI(t, "-sweep", "-workloads", "nope"); code != 1 {
		t.Fatalf("bad workload: code %d", code)
	}
	if _, _, code := runCLI(t); code != 2 {
		t.Fatalf("no mode: code %d", code)
	}
	// The backbone has no direction axis: an explicit non-down -dir
	// must be rejected, not silently measured downstream.
	if _, errOut, code := runCLI(t, "-sweep", "-network", "backbone", "-workloads", "short-low", "-dir", "up", "-buffers", "100", "-probes", "web"); code != 2 {
		t.Fatalf("backbone -dir up: code %d, stderr %q", code, errOut)
	}
	if _, _, code := runCLI(t, "-sweep", "-uprate", "-5e6", "-buffers", "16", "-probes", "web"); code != 1 {
		t.Fatalf("negative uprate: code %d", code)
	}
}

// TestSweepRefusesLinksWithNoAnswer: a link rate that is not a finite
// number or too slow to send one packet within a cell's cap, and a
// reorder probability that is not a number, fail the sweep before any
// cell runs, naming the field.
func TestSweepRefusesLinksWithNoAnswer(t *testing.T) {
	for _, tc := range []struct{ flag, value, names string }{
		{"-downrate", "NaN", "DownRate"},
		{"-downrate", "1e-300", "DownRate"},
		{"-uprate", "+Inf", "UpRate"},
		{"-reorder", "NaN", "reorder"},
	} {
		_, errOut, code := runCLI(t, "-sweep", "-buffers", "8", "-probes", "voip", "-workloads", "noBG", tc.flag, tc.value)
		if code != 1 || !strings.Contains(errOut, tc.names) {
			t.Errorf("%s %s: exit %d, stderr %q; want exit 1 naming %s", tc.flag, tc.value, code, errOut, tc.names)
		}
	}
}

// TestRecommendRefusesThresholdsWithNoAnswer: a -threshold every
// score meets (NaN), none can (+Inf) or below the scale fails the
// question before any cell runs, naming the field.
func TestRecommendRefusesThresholdsWithNoAnswer(t *testing.T) {
	for _, th := range []string{"NaN", "+Inf", "-Inf", "-1"} {
		out, errOut, code := runCLI(t, "-recommend", "-workloads", "short-many", "-dir", "up", "-probes", "voip",
			"-buffers", "8,64,256", "-threshold", th)
		if code != 1 || !strings.Contains(errOut, "Threshold") || out != "" {
			t.Errorf("-threshold %s: exit %d, stdout %q, stderr %q; want exit 1 naming Threshold", th, code, out, errOut)
		}
	}
}

// TestWarmupWithNoAnswerRefused: a warmup that leaves no rep of a
// probe time to finish inside a cell's 30-minute horizon is refused
// naming Warmup and its bound (every probe used to score the median of
// nothing: voip 0.00, web 0.00s "Excellent", exit 0); at 29 minutes
// the sweep answers as before.
func TestWarmupWithNoAnswerRefused(t *testing.T) {
	// Not runCLI: its tiny arguments would set the warmup.
	runArgs := func(args ...string) (string, string, int) {
		var out, errb bytes.Buffer
		code := run(args, &out, &errb)
		return out.String(), errb.String(), code
	}
	for _, args := range [][]string{
		{"-sweep", "-workloads", "noBG", "-buffers", "8", "-probes", "voip,web,video", "-warmup", "31m"},
		{"-recommend", "-workloads", "noBG", "-buffers", "8,16", "-probes", "web", "-warmup", "31m"},
	} {
		out, errOut, code := runArgs(args...)
		if code != 1 || !strings.Contains(errOut, "Warmup") || !strings.Contains(errOut, "must be at most") || out != "" {
			t.Errorf("%v: exit %d, stdout %q, stderr %q; want exit 1 naming Warmup and its bound", args, code, out, errOut)
		}
	}
	out, errOut, code := runArgs("-sweep", "-workloads", "noBG", "-buffers", "8", "-probes", "voip", "-warmup", "29m", "-json")
	if code != 0 || !strings.Contains(out, `"value": 4.448598902188453`) {
		t.Errorf("-warmup 29m: exit %d, stderr %q, stdout:\n%s\nwant voip 4.448598902188453", code, errOut, out)
	}
}

// TestRecommendShowsDecidingDirection: an access VoIP cell is scored
// by its worse direction, so the rating printed beside it is that
// direction's, labeled.
func TestRecommendShowsDecidingDirection(t *testing.T) {
	for _, tc := range []struct {
		cell bufferqoe.SweepCell
		want string
	}{
		{bufferqoe.SweepCell{MOS: 4.4, Rating: "Very Satisfied", TalkMOS: 2.8, TalkRating: "Many Users Dissatisfied"},
			"Many Users Dissatisfied (talk)"},
		{bufferqoe.SweepCell{MOS: 2.8, Rating: "Many Users Dissatisfied", TalkMOS: 4.4, TalkRating: "Very Satisfied"},
			"Many Users Dissatisfied (listen)"},
		{bufferqoe.SweepCell{MOS: 3.9, Rating: "Good"}, "Good"},
	} {
		if got := decidedRating(tc.cell); got != tc.want {
			t.Errorf("decidedRating(%+v) = %q, want %q", tc.cell, got, tc.want)
		}
	}
}

// TestSweepProgress: -progress streams one per-cell completion line
// per cell to stderr.
func TestSweepProgress(t *testing.T) {
	out, errOut, code := runCLI(t,
		"-sweep", "-workloads", "noBG", "-buffers", "16,64", "-probes", "voip", "-progress")
	if code != 0 {
		t.Fatalf("exit code %d, stderr %q", code, errOut)
	}
	if !strings.Contains(out, "2 cells") {
		t.Fatalf("sweep output missing summary:\n%s", out)
	}
	if n := strings.Count(errOut, "progress: "); n != 2 {
		t.Fatalf("progress lines = %d, want 2:\n%s", n, errOut)
	}
	if !strings.Contains(errOut, "progress: 2/2") {
		t.Fatalf("missing final progress line:\n%s", errOut)
	}
}

func TestProgressRequiresStreamingMode(t *testing.T) {
	if _, _, code := runCLI(t, "-exp", "table2", "-progress"); code != 2 {
		t.Fatalf("-progress with -exp: code %d, want 2", code)
	}
}

// TestTimeoutExpiry: an already-expired deadline abandons the sweep,
// or the experiment, with a non-zero exit and a cancellation notice.
func TestTimeoutExpiry(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want []string
	}{
		{[]string{"-sweep", "-workloads", "noBG", "-buffers", "16", "-probes", "voip"}, []string{"deadline exceeded"}},
		{[]string{"-exp", "fig7a"}, []string{"FAILED fig7a", "canceled"}},
	} {
		_, errOut, code := runCLI(t, append(tc.args, "-timeout", "1ns")...)
		if code != 1 {
			t.Fatalf("%v: expired deadline: code %d, want 1 (stderr %q)", tc.args, code, errOut)
		}
		for _, want := range tc.want {
			if !strings.Contains(errOut, want) {
				t.Fatalf("%v: stderr lacks %q:\n%s", tc.args, want, errOut)
			}
		}
	}
}

// TestRecommendCLI: the recommender end to end, text and JSON.
func TestRecommendCLI(t *testing.T) {
	out, errOut, code := runCLI(t,
		"-recommend", "-workloads", "noBG", "-probes", "voip",
		"-buffers", "8,16,32,64", "-target", "min-mos")
	if code != 0 {
		t.Fatalf("exit code %d, stderr %q", code, errOut)
	}
	for _, want := range []string{"recommended buffer: 8 packets", "threshold met: true", "nearest paper scheme", "evaluated"} {
		if !strings.Contains(out, want) {
			t.Fatalf("recommend output missing %q:\n%s", want, out)
		}
	}

	jsonOut, _, code := runCLI(t,
		"-recommend", "-workloads", "noBG", "-probes", "voip",
		"-buffers", "8,16,32,64", "-json")
	if code != 0 {
		t.Fatalf("json exit code %d", code)
	}
	var report jsonReport
	if err := json.Unmarshal([]byte(jsonOut), &report); err != nil {
		t.Fatalf("bad JSON: %v\n%s", err, jsonOut)
	}
	if report.Recommend == nil || report.Recommend.Buffer != 8 {
		t.Fatalf("recommend report = %+v", report.Recommend)
	}
	if report.Recommend.CellsEvaluated >= report.Recommend.GridCells {
		t.Fatalf("no search savings: %+v", report.Recommend)
	}
}

func TestRecommendBadFlags(t *testing.T) {
	if _, _, code := runCLI(t, "-recommend", "-workloads", "noBG,short-few", "-probes", "voip"); code != 2 {
		t.Fatalf("two workloads: code %d, want 2", code)
	}
	if _, _, code := runCLI(t, "-recommend", "-workloads", "noBG", "-probes", "voip", "-target", "fastest"); code != 2 {
		t.Fatalf("bad target: code %d, want 2", code)
	}
	if _, _, code := runCLI(t, "-recommend", "-sweep", "-workloads", "noBG", "-probes", "voip"); code != 2 {
		t.Fatalf("-recommend with -sweep: code %d, want 2", code)
	}
	if _, _, code := runCLI(t, "-recommend", "-exp", "fig7b", "-workloads", "noBG", "-probes", "voip"); code != 2 {
		t.Fatalf("-recommend with -exp: code %d, want 2", code)
	}
}

func TestProbeProfileOnNonVideoRejected(t *testing.T) {
	if _, _, code := runCLI(t, "-sweep", "-buffers", "16", "-probes", "web:HD"); code != 2 {
		t.Fatalf("web:HD probe: code %d, want 2", code)
	}
}

func TestEmptyExperimentListRejected(t *testing.T) {
	if _, _, code := runCLI(t, "-exp", ","); code != 2 {
		t.Fatalf("-exp ',': code %d, want 2 (not a silent 0/0 success)", code)
	}
}

func TestSweepAndExpMutuallyExclusive(t *testing.T) {
	if _, _, code := runCLI(t, "-sweep", "-exp", "fig7b", "-buffers", "16", "-probes", "web"); code != 2 {
		t.Fatalf("-sweep with -exp: code %d, want 2", code)
	}
}
