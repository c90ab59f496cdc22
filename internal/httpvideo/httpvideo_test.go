package httpvideo

import (
	"testing"
	"time"

	"bufferqoe/internal/testbed"
)

func watch(t *testing.T, b *testbed.Testbed, cfg Config) Result {
	t.Helper()
	RegisterServer(b.MediaServerTCP, Port, cfg)
	var got *Result
	Watch(b.MediaClientTCP, b.MediaServer.Addr(Port), cfg, func(r Result) { got = &r })
	b.Eng.RunFor(cfg.withDefaults().Deadline + 10*time.Second)
	if got == nil {
		t.Fatal("session never finished")
	}
	return *got
}

func TestSmoothPlaybackOnIdleBackbone(t *testing.T) {
	// 4 Mbit/s media over an idle 155 Mbit/s path: starts fast, never
	// stalls, scores near the regression ceiling.
	b := testbed.NewBackbone(testbed.Config{BufferDown: 749, Seed: 1})
	r := watch(t, b, Config{MediaDuration: 8 * time.Second})
	if !r.Completed {
		t.Fatalf("idle-path session incomplete: %+v", r)
	}
	if r.Stalls != 0 {
		t.Fatalf("idle path stalled %d times", r.Stalls)
	}
	if r.StartupDelay > 2*time.Second {
		t.Fatalf("startup = %v", r.StartupDelay)
	}
	if r.MOS < 4.0 {
		t.Fatalf("MOS = %v, want >= 4", r.MOS)
	}
}

func TestCongestionCausesStalls(t *testing.T) {
	if testing.Short() {
		t.Skip("heavy simulation; skipped in -short (race CI) mode")
	}
	// The paper's consistency claim: like RTP video, HTTP video QoE
	// collapses under sustained congestion — but via stalls, not
	// artifacts.
	b := testbed.NewBackbone(testbed.Config{BufferDown: 749, Seed: 2})
	b.StartWorkload(testbed.MustSpec(testbed.LookupBackboneScenario("short-overload")))
	b.Eng.RunFor(5 * time.Second)
	r := watch(t, b, Config{MediaDuration: 8 * time.Second})
	if r.Stalls == 0 && r.StartupDelay < 3*time.Second && r.Completed {
		t.Fatalf("overloaded path played cleanly: %+v", r)
	}
	clean := watchClean(t)
	if r.MOS >= clean {
		t.Fatalf("overload MOS %v >= clean MOS %v", r.MOS, clean)
	}
}

func watchClean(t *testing.T) float64 {
	b := testbed.NewBackbone(testbed.Config{BufferDown: 749, Seed: 3})
	return watch(t, b, Config{MediaDuration: 8 * time.Second}).MOS
}

func TestTCPVideoToleratesModerateLossUnlikeRTP(t *testing.T) {
	if testing.Short() {
		t.Skip("heavy simulation; skipped in -short (race CI) mode")
	}
	// Key qualitative difference from Section 8: TCP retransmissions
	// hide moderate loss behind the playback buffer, so medium load
	// that would blemish RTP video leaves HTTP video clean.
	b := testbed.NewBackbone(testbed.Config{BufferDown: 749, Seed: 4})
	b.StartWorkload(testbed.MustSpec(testbed.LookupBackboneScenario("short-medium")))
	b.Eng.RunFor(5 * time.Second)
	r := watch(t, b, Config{MediaDuration: 8 * time.Second})
	if !r.Completed || r.Stalls > 0 {
		t.Fatalf("medium load broke HTTP playback: %+v", r)
	}
	if r.MOS < 4.0 {
		t.Fatalf("medium-load MOS = %v", r.MOS)
	}
}

func TestMokMOSLevels(t *testing.T) {
	// No impairment: ceiling.
	if got := MokMOS(500*time.Millisecond, 0, 0, time.Minute); got < 4.2 {
		t.Fatalf("clean MOS = %v", got)
	}
	// Frequent stalls crater the score.
	bad := MokMOS(8*time.Second, 10, 40*time.Second, time.Minute)
	if bad > 2.0 {
		t.Fatalf("stall-storm MOS = %v", bad)
	}
	// Monotone in stall count.
	a := MokMOS(time.Second, 1, 2*time.Second, time.Minute)
	c := MokMOS(time.Second, 20, 40*time.Second, time.Minute)
	if c >= a {
		t.Fatalf("MOS not monotone in stalls: %v vs %v", a, c)
	}
	// Bounded.
	if MokMOS(time.Hour, 100, time.Hour, time.Second) < 1 {
		t.Fatal("MOS below 1")
	}
}

func TestDeadlineAbortsSession(t *testing.T) {
	// No server: the deadline must still deliver a result.
	b := testbed.NewBackbone(testbed.Config{BufferDown: 749, Seed: 5})
	var got *Result
	cfg := Config{MediaDuration: 4 * time.Second, Deadline: 10 * time.Second}
	Watch(b.MediaClientTCP, b.MediaServer.Addr(Port), cfg, func(r Result) { got = &r })
	b.Eng.RunFor(30 * time.Second)
	if got == nil {
		t.Fatal("no result after deadline")
	}
	if got.Completed {
		t.Fatal("dead server session completed")
	}
	if got.MOS > 1.5 {
		t.Fatalf("dead session MOS = %v", got.MOS)
	}
}
