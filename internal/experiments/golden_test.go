package experiments

import (
	"fmt"
	"testing"
	"time"

	"bufferqoe/internal/aqm"
	"bufferqoe/internal/engine"
	"bufferqoe/internal/netem"
	"bufferqoe/internal/testbed"
	"bufferqoe/internal/video"
)

// goldenOptions is the fixed configuration of the golden cross-section
// below. Changing it invalidates the recorded values.
func goldenOptions() Options {
	return Options{
		Seed:        42,
		Duration:    4 * time.Second,
		Warmup:      2 * time.Second,
		Reps:        2,
		ClipSeconds: 2,
		CDNFlows:    10000,
	}
}

// golden values recorded from the pre-refactor (closure-scheduling,
// unpooled) engine at commit aad3759. The pooled/handler event core
// must reproduce them bit-for-bit: every float printed with %v
// round-trips exactly, so a single ULP of drift fails the test.
var goldenCells = map[string]string{
	"access/voip/droptail":   "voipScore{Listen:2.893814368463304, Talk:1, UpDelayMs:1517.6494693148195, UpUtilPct:99.58892466194462}",
	"access/voip/codel":      "voipScore{Listen:4.448442240860835, Talk:1.3141405557459813, UpDelayMs:0, UpUtilPct:97.02253702511268}",
	"access/video/droptail":  "videoScore{SSIM:0.9968898450611506, PSNR:57.97436396783822}",
	"backbone/web/droptail":  "webPLT{PLT:488929029}",
	"backbone/voip/droptail": "voipMedian{MOS:4.414951120459074}",
}

// goldenTasks builds the cross-section: access + backbone testbeds,
// TCP (web) + UDP (voip, video) media, drop-tail + CoDel disciplines.
func goldenTasks(o Options) map[string]engine.Task {
	codel := variant{
		tag: "queue=codel",
		upQueue: func(capPkts int, _ uint64) netem.Queue {
			return aqm.NewCoDelForRate(capPkts, testbed.AccessUpRate)
		},
	}
	return map[string]engine.Task{
		"access/voip/droptail":   cellTask(o, accessNet, "long-many", testbed.DirUp, 256, variant{}, voipFG),
		"access/voip/codel":      cellTask(o, accessNet, "long-many", testbed.DirUp, 256, codel, voipFG),
		"access/video/droptail":  cellTask(o, accessNet, "short-few", testbed.DirDown, 32, variant{}, videoFG(video.ClipC, video.SD, video.RecoveryNone)),
		"backbone/web/droptail":  cellTask(o, backboneNet, "short-low", testbed.DirDown, 128, variant{}, webFG(0)),
		"backbone/voip/droptail": cellTask(o, backboneNet, "short-medium", testbed.DirDown, 64, variant{}, voipFG),
	}
}

// renderGolden formats a cell value with full float round-trip
// precision.
func renderGolden(v any) string {
	switch x := v.(type) {
	case voipScore:
		return fmt.Sprintf("voipScore{Listen:%v, Talk:%v, UpDelayMs:%v, UpUtilPct:%v}",
			x.Listen, x.Talk, x.UpDelayMs, x.UpUtilPct)
	case videoScore:
		return fmt.Sprintf("videoScore{SSIM:%v, PSNR:%v}", x.SSIM, x.PSNR)
	case time.Duration:
		return fmt.Sprintf("webPLT{PLT:%d}", int64(x))
	case float64:
		return fmt.Sprintf("voipMedian{MOS:%v}", x)
	default:
		return fmt.Sprintf("unknown(%T)%v", v, v)
	}
}

// runTaskForTest invokes a cell function directly, bypassing the
// engine's cache so the golden test always simulates.
func runTaskForTest(task engine.Task, seed uint64) any {
	return task.Fn().Compute(task.Spec(), seed, nil)
}

// TestGoldenCrossSection pins a small cross-section of Grid metrics
// (access + backbone, TCP + UDP media, drop-tail + CoDel) to values
// recorded before the zero-allocation event-core refactor. It is the
// end-to-end proof that pooled timers, handler-based scheduling,
// packet free-lists and scratch reuse changed no simulated outcome.
func TestGoldenCrossSection(t *testing.T) {
	if testing.Short() {
		t.Skip("heavy simulation; skipped in -short (race CI) mode")
	}
	o := goldenOptions()
	for name, task := range goldenTasks(o) {
		name, task := name, task
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			spec := task.Spec()
			got := renderGolden(runTaskForTest(task, engine.DeriveSeed(spec)))
			if want := goldenCells[name]; got != want {
				t.Errorf("golden mismatch for %s:\n got:  %s\n want: %s", spec, got, want)
			}
		})
	}
}
