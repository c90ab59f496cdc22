package experiments

import (
	"context"
	"errors"
	"strconv"
	"strings"
	"testing"
	"time"
)

// tiny returns options small enough for unit tests.
func tiny() Options {
	return Options{
		Seed:        7,
		Duration:    4 * time.Second,
		Warmup:      2 * time.Second,
		Reps:        1,
		ClipSeconds: 1,
		CDNFlows:    30000,
	}
}

func TestIDsComplete(t *testing.T) {
	want := []string{
		"table1", "table2",
		"fig1a", "fig1b", "fig1c",
		"fig4a", "fig4b", "fig4c", "fig5",
		"fig7a", "fig7b", "fig7c", "fig8",
		"fig9a", "fig9b",
		"fig10a", "fig10b", "fig10c", "fig11",
		"abl-aqm", "abl-bic", "abl-bytequeue", "abl-ccalgo", "abl-ecn",
		"abl-iqx", "abl-iw10", "abl-loadaware", "abl-smoothing",
		"abl-playout", "abl-sack",
		"ext-abr", "ext-clips", "ext-fqcodel-web", "ext-httpvideo",
		"ext-jitter", "ext-parweb", "ext-psnr", "ext-recovery",
	}
	have := map[string]bool{}
	for _, id := range IDs() {
		have[id] = true
	}
	for _, id := range want {
		if !have[id] {
			t.Fatalf("missing experiment %q", id)
		}
	}
	if len(IDs()) != len(want) {
		t.Fatalf("experiment count = %d, want %d (%v)", len(IDs()), len(want), IDs())
	}
}

func TestUnknownID(t *testing.T) {
	if _, err := Run(t.Context(), "nope", tiny()); err == nil {
		t.Fatal("expected error")
	}
}

// TestEveryRunnerBuildsItsCells drives every registered experiment
// under an already-canceled context: each runner builds its full task
// list (workload names resolve at task-build time, so a runner
// handing an access builder a backbone scenario name — the fig9b bug
// — panics right here), then the engine abandons the cells without
// simulating anything. Cheap total coverage of every builder path.
// A runner that had cells abandoned must say so with ErrCanceled and
// no result — one that dropped runCells's error would render an empty
// grid — and a runner that submitted no cell must return its result.
func TestEveryRunnerBuildsItsCells(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	s := NewSession(1)
	for _, id := range IDs() {
		before := s.EngineStats().Canceled
		res, err := s.Run(ctx, id, tiny())
		if s.EngineStats().Canceled > before {
			if !errors.Is(err, ErrCanceled) || res != nil {
				t.Fatalf("%s: cells abandoned, but the run returned %v, %v; want ErrCanceled and no result", id, res, err)
			}
			continue
		}
		if err != nil || res == nil {
			t.Fatalf("%s: no cell submitted, but the run returned %v, %v; want a result", id, res, err)
		}
	}
	if st := s.EngineStats(); st.Misses != 0 || st.Hits != 0 {
		t.Fatalf("a canceled run touched a cell: %+v", st)
	}
}

func TestGridRender(t *testing.T) {
	g := NewGrid("t", []string{"r1"}, []string{"c1", "c2"})
	g.Set("r1", "c1", Cell{Value: 3.14159})
	g.Set("r1", "c2", Cell{Text: "x", Class: "good"})
	out := g.Render()
	if !strings.Contains(out, "3.14") || !strings.Contains(out, "x (good)") {
		t.Fatalf("render = %q", out)
	}
}

func TestTable2Static(t *testing.T) {
	r, err := Run(t.Context(), "table2", tiny())
	if err != nil {
		t.Fatal(err)
	}
	out := r.Render()
	// Spot-check the paper's headline delays: 3167 ms uplink max,
	// 580 ms backbone bloat.
	if !strings.Contains(out, "3072") && !strings.Contains(out, "3167") {
		// we compute 3072 ms for 256 pkts at 1 Mbit/s
		t.Fatalf("missing uplink max delay in:\n%s", out)
	}
	if !strings.Contains(out, "579.") && !strings.Contains(out, "580") {
		t.Fatalf("missing backbone bloat delay in:\n%s", out)
	}
}

func TestFig1Family(t *testing.T) {
	for _, id := range []string{"fig1a", "fig1b", "fig1c"} {
		r, err := Run(t.Context(), id, tiny())
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if len(r.Grids) == 0 {
			t.Fatalf("%s: no grids", id)
		}
		if r.Render() == "" {
			t.Fatalf("%s: empty render", id)
		}
	}
}

func TestFig1aOrdering(t *testing.T) {
	r, err := Run(t.Context(), "fig1a", tiny())
	if err != nil {
		t.Fatal(err)
	}
	g := r.Grids[0]
	minMode := g.Get("min RTT", "mode (ms)").Value
	maxMode := g.Get("max RTT", "mode (ms)").Value
	if maxMode <= minMode {
		t.Fatalf("max mode %v <= min mode %v", maxMode, minMode)
	}
}

func TestFig4cBufferbloatShape(t *testing.T) {
	r, err := Run(t.Context(), "fig4c", tiny())
	if err != nil {
		t.Fatal(err)
	}
	g := r.Grids[0]
	// Uplink delay at 256 packets must dwarf the 8-packet delay for
	// the long-many upstream workload (Figure 4c's headline).
	small := g.Get("uplink/long-many", "8").Value
	big := g.Get("uplink/long-many", "256").Value
	if big < 5*small || big < 500 {
		t.Fatalf("bufferbloat shape missing: 8pkt=%.0fms 256pkt=%.0fms", small, big)
	}
	if g.Get("uplink/long-many", "256").Class != "severe" {
		t.Fatalf("256-pkt uplink delay not classified severe")
	}
}

func TestFig5Shape(t *testing.T) {
	r, err := Run(t.Context(), "fig5", tiny())
	if err != nil {
		t.Fatal(err)
	}
	g := r.Grids[0]
	// Uplink stays near-saturated across buffer sizes (paper: ~100%).
	up := g.Get("uplink median", "64").Value
	if up < 70 {
		t.Fatalf("uplink median utilization = %.1f%%, want high", up)
	}
}

func TestFig7bShape(t *testing.T) {
	o := tiny()
	r, err := Run(t.Context(), "fig7b", o)
	if err != nil {
		t.Fatal(err)
	}
	g := r.Grids[0]
	// noBG rows stay excellent at every buffer size.
	for _, col := range g.Cols {
		if v := g.Get("user-talks/noBG", col).Value; v < 3.9 {
			t.Fatalf("noBG talk MOS at %s = %v", col, v)
		}
	}
	// Upload congestion with bloat wrecks the talk direction relative
	// to noBG.
	talkBloat := g.Get("user-talks/short-many", "256").Value
	if talkBloat > 3.0 {
		t.Fatalf("talk MOS under bloated congested uplink = %v, want low", talkBloat)
	}
}

func TestFig8Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("heavy simulation; skipped in -short (race CI) mode")
	}
	r, err := Run(t.Context(), "fig8", tiny())
	if err != nil {
		t.Fatal(err)
	}
	g := r.Grids[0]
	// noBG is excellent; short-overload is catastrophic (paper: 1.2-1.7).
	if v := g.Get("noBG", "749").Value; v < 4.0 {
		t.Fatalf("backbone noBG MOS = %v", v)
	}
	clean := g.Get("short-low", "749").Value
	overload := g.Get("short-overload", "749").Value
	if overload >= clean {
		t.Fatalf("overload MOS %v >= short-low %v", overload, clean)
	}
}

func TestFig9aShape(t *testing.T) {
	r, err := Run(t.Context(), "fig9a", tiny())
	if err != nil {
		t.Fatal(err)
	}
	g := r.Grids[0]
	// noBG rows: SSIM ~1 for both resolutions at every buffer.
	for _, col := range g.Cols {
		for _, p := range []string{"SD", "HD"} {
			if v := g.Get(p+"/noBG", col).Value; v < 0.99 {
				t.Fatalf("%s noBG SSIM at %s = %v", p, col, v)
			}
		}
	}
	// Congested SD is clearly degraded (paper: ~0.4-0.56).
	if v := g.Get("SD/long-many", "64").Value; v > 0.97 {
		t.Fatalf("congested SD SSIM = %v, want degraded", v)
	}
}

func TestFig10bShape(t *testing.T) {
	r, err := Run(t.Context(), "fig10b", tiny())
	if err != nil {
		t.Fatal(err)
	}
	g := r.Grids[0]
	// noBG loads fast; upload congestion inflates PLT dramatically.
	base := g.Get("noBG", "64").Value
	cong := g.Get("long-many", "256").Value
	if base > 1.5 {
		t.Fatalf("noBG PLT = %vs", base)
	}
	if cong < 2*base {
		t.Fatalf("congested PLT %vs not clearly above baseline %vs", cong, base)
	}
}

func TestExtensionHTTPVideo(t *testing.T) {
	if testing.Short() {
		t.Skip("heavy simulation; skipped in -short (race CI) mode")
	}
	r, err := Run(t.Context(), "ext-httpvideo", tiny())
	if err != nil {
		t.Fatal(err)
	}
	g := r.Grids[0]
	clean := g.Get("noBG", "749").Value
	loaded := g.Get("short-overload", "749").Value
	if clean < 4.0 {
		t.Fatalf("idle HTTP video MOS = %v", clean)
	}
	if loaded >= clean {
		t.Fatalf("overload MOS %v >= clean %v (workload should dominate)", loaded, clean)
	}
}

func TestAblationPlayout(t *testing.T) {
	r, err := Run(t.Context(), "abl-playout", tiny())
	if err != nil {
		t.Fatal(err)
	}
	g := r.Grids[0]
	// The adaptive buffer must not lose more frames than the fixed
	// one under downstream jitter.
	fixed := g.Get("app loss %", "fixed-60ms").Value
	adaptive := g.Get("app loss %", "adaptive").Value
	if adaptive > fixed+1 {
		t.Fatalf("adaptive playout loses more (%v%%) than fixed (%v%%)", adaptive, fixed)
	}
}

func TestExtensionClips(t *testing.T) {
	if testing.Short() {
		t.Skip("heavy simulation; skipped in -short (race CI) mode")
	}
	r, err := Run(t.Context(), "ext-clips", tiny())
	if err != nil {
		t.Fatal(err)
	}
	g := r.Grids[0]
	// All clips are pristine without load and degraded under long.
	for _, row := range g.Rows {
		if v := g.Get(row, "noBG").Value; v < 0.99 {
			t.Fatalf("%s noBG SSIM = %v", row, v)
		}
		if v := g.Get(row, "long").Value; v > 0.97 {
			t.Fatalf("%s under long workload SSIM = %v, want degraded", row, v)
		}
	}
}

func TestAblationSACKKeepsQueueFuller(t *testing.T) {
	r, err := Run(t.Context(), "abl-sack", tiny())
	if err != nil {
		t.Fatal(err)
	}
	g := r.Grids[0]
	reno := g.Get("mean uplink delay (ms)", "newreno").Value
	sack := g.Get("mean uplink delay (ms)", "sack").Value
	if sack < reno*0.8 {
		t.Fatalf("SACK mean delay %v << NewReno %v: standing queue should be at least comparable", sack, reno)
	}
}

func TestAblationsRun(t *testing.T) {
	for _, id := range []string{"abl-aqm", "abl-ccalgo", "abl-loadaware", "abl-smoothing", "abl-playout", "abl-sack"} {
		r, err := Run(t.Context(), id, tiny())
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if len(r.Grids) == 0 || r.Render() == "" {
			t.Fatalf("%s: empty result", id)
		}
	}
}

func TestAblationAQMImprovesTalkDelay(t *testing.T) {
	r, err := Run(t.Context(), "abl-aqm", tiny())
	if err != nil {
		t.Fatal(err)
	}
	g := r.Grids[0]
	droptail := g.Get("talk MOS", "drop-tail").Value
	codel := g.Get("talk MOS", "codel").Value
	// CoDel should not be worse than a bloated drop-tail for the
	// conversational score.
	if codel+0.3 < droptail {
		t.Fatalf("CoDel talk MOS %v clearly worse than drop-tail %v", codel, droptail)
	}
}

func TestAblationSmoothingShape(t *testing.T) {
	r, err := Run(t.Context(), "abl-smoothing", tiny())
	if err != nil {
		t.Fatal(err)
	}
	g := r.Grids[0]
	if g.Get("loss %", "smooth-8pkt").Value != 0 {
		t.Fatal("smoothed stream lost packets on idle link")
	}
	if g.Get("loss %", "burst-8pkt").Value == 0 {
		t.Fatal("unsmoothed bursts lost nothing at 8-pkt buffer")
	}
}

func TestOptionDefaults(t *testing.T) {
	o := Options{}.withDefaults()
	if o.Reps == 0 || o.Duration == 0 || o.Seed == 0 || o.CDNFlows == 0 {
		t.Fatalf("defaults missing: %+v", o)
	}
}

func TestBufferColumnLabels(t *testing.T) {
	cols := bufferCols(accessNet.buffers)
	if len(cols) != 6 || cols[0] != "8" || cols[5] != "256" {
		t.Fatalf("access cols = %v", cols)
	}
	for _, c := range bufferCols(backboneNet.buffers) {
		if _, err := strconv.Atoi(c); err != nil {
			t.Fatalf("bad column %q", c)
		}
	}
}
