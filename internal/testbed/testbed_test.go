package testbed

import (
	"testing"
	"time"

	"bufferqoe/internal/harpoon"
	"bufferqoe/internal/netem"
	"bufferqoe/internal/sim"
	"bufferqoe/internal/tcp"
)

func TestAccessBaseRTT(t *testing.T) {
	// Base path RTT (no congestion) should be ~50 ms: 2*(5+20+0.1+2*0.05)
	// plus serialization.
	a := NewAccess(Config{BufferUp: 8, BufferDown: 64, Seed: 1})
	a.MediaServerTCP.Listen(80, func(c *tcp.Conn) {
		c.OnEstablished = func() { c.Send(1000); c.CloseWrite() }
		c.OnPeerClose = func(*tcp.Conn) { c.CloseWrite() }
	})
	cc := a.MediaClientTCP.Dial(a.MediaServer.Addr(80))
	cc.OnPeerClose = func(*tcp.Conn) { cc.CloseWrite() }
	a.Eng.RunUntil(sim.Time(5 * time.Second))
	rtt := cc.SRTT()
	if rtt < 45*time.Millisecond || rtt > 90*time.Millisecond {
		t.Fatalf("base RTT = %v, want ~50-60ms", rtt)
	}
}

func TestBackboneBaseRTT(t *testing.T) {
	b := NewBackbone(Config{BufferDown: 749, Seed: 1})
	b.MediaServerTCP.Listen(80, func(c *tcp.Conn) {
		c.OnEstablished = func() { c.Send(1000); c.CloseWrite() }
		c.OnPeerClose = func(*tcp.Conn) { c.CloseWrite() }
	})
	cc := b.MediaClientTCP.Dial(b.MediaServer.Addr(80))
	cc.OnPeerClose = func(*tcp.Conn) { cc.CloseWrite() }
	b.Eng.RunUntil(sim.Time(5 * time.Second))
	rtt := cc.SRTT()
	if rtt < 58*time.Millisecond || rtt > 90*time.Millisecond {
		t.Fatalf("backbone RTT = %v, want ~60ms", rtt)
	}
}

func sessions(specs []harpoon.Spec) int {
	n := 0
	for _, s := range specs {
		n += s.Sessions
	}
	return n
}

func TestAccessScenarioDefinitions(t *testing.T) {
	for _, name := range AccessScenarioNames {
		for _, dir := range []Direction{DirUp, DirDown, DirBidir} {
			s := MustSpec(LookupAccessScenario(name, dir))
			if s.Name != name {
				t.Fatalf("scenario name %q != %q", s.Name, name)
			}
			if name == "noBG" && s.HasTraffic() {
				t.Fatal("noBG has sessions")
			}
			if dir == DirUp && len(s.Down) != 0 {
				t.Fatalf("%s up-only has down sessions", name)
			}
			if dir == DirDown && len(s.Up) != 0 {
				t.Fatalf("%s down-only has up sessions", name)
			}
		}
	}
	// Table 1: long-many is 8 up / 64 down infinite flows.
	s := MustSpec(LookupAccessScenario("long-many", DirBidir))
	if sessions(s.Up) != 8 || sessions(s.Down) != 64 || !s.Up[0].Infinite {
		t.Fatalf("long-many = %+v", s)
	}
}

func TestBackboneScenarioDefinitions(t *testing.T) {
	for _, name := range BackboneScenarioNames {
		s := MustSpec(LookupBackboneScenario(name))
		if len(s.Up) != 0 {
			t.Fatalf("%s: backbone must be downstream-only", name)
		}
	}
	if sessions(MustSpec(LookupBackboneScenario("short-overload")).Down) != 768 {
		t.Fatal("short-overload sessions != 3*256")
	}
	if !MustSpec(LookupBackboneScenario("long")).Down[0].Infinite {
		t.Fatal("long not infinite")
	}
}

func TestAccessLongDownSaturatesDownlink(t *testing.T) {
	// Table 1: long downstream scenarios reach ~100% downlink
	// utilization at BDP buffers.
	a := NewAccess(Config{BufferUp: 8, BufferDown: 64, Seed: 2})
	a.StartWorkload(MustSpec(LookupAccessScenario("long-few", DirDown)))
	a.Eng.RunUntil(sim.Time(30 * time.Second))
	util := a.DownLink.Monitor.MeanUtilization(a.Eng.Now())
	if util < 90 {
		t.Fatalf("downlink utilization = %.1f%%, want >90%%", util)
	}
	// The uplink carries only ACKs: nonzero but far from saturated.
	upUtil := a.UpLink.Monitor.MeanUtilization(a.Eng.Now())
	if upUtil <= 0.5 || upUtil > 50 {
		t.Fatalf("uplink (ACK) utilization = %.1f%%, want (0.5, 50)", upUtil)
	}
}

func TestAccessUpWorkloadSaturatesUplink(t *testing.T) {
	// Table 1: upstream scenarios saturate the 1 Mbit/s uplink with
	// substantial loss.
	a := NewAccess(Config{BufferUp: 8, BufferDown: 64, Seed: 3})
	a.StartWorkload(MustSpec(LookupAccessScenario("short-few", DirUp)))
	a.Eng.RunUntil(sim.Time(30 * time.Second))
	util := a.UpLink.Monitor.MeanUtilization(a.Eng.Now())
	if util < 85 {
		t.Fatalf("uplink utilization = %.1f%%, want >85%%", util)
	}
	if a.UpMon.LossRate() == 0 {
		t.Fatal("saturated uplink shows no loss")
	}
}

func TestAccessShortFewDownModerate(t *testing.T) {
	// Table 1: short-few downstream yields moderate (~40-60%)
	// downlink utilization — the key "moderate load" regime.
	a := NewAccess(Config{BufferUp: 8, BufferDown: 64, Seed: 4})
	a.StartWorkload(MustSpec(LookupAccessScenario("short-few", DirDown)))
	a.Eng.RunUntil(sim.Time(60 * time.Second))
	util := a.DownLink.Monitor.MeanUtilization(a.Eng.Now())
	if util < 20 || util > 75 {
		t.Fatalf("short-few downlink utilization = %.1f%%, want moderate (20-75)", util)
	}
	// short-many must load the link more than short-few.
	a2 := NewAccess(Config{BufferUp: 8, BufferDown: 64, Seed: 4})
	a2.StartWorkload(MustSpec(LookupAccessScenario("short-many", DirDown)))
	a2.Eng.RunUntil(sim.Time(60 * time.Second))
	util2 := a2.DownLink.Monitor.MeanUtilization(a2.Eng.Now())
	if util2 <= util {
		t.Fatalf("short-many (%.1f%%) <= short-few (%.1f%%)", util2, util)
	}
}

func TestBufferbloatDelaysGrowWithBufferSize(t *testing.T) {
	// Figure 4c: mean uplink queueing delay grows to seconds with
	// 256-packet buffers under upstream workload.
	delays := map[int]float64{}
	for _, buf := range []int{8, 256} {
		a := NewAccess(Config{BufferUp: buf, BufferDown: buf, Seed: 5})
		a.StartWorkload(MustSpec(LookupAccessScenario("long-many", DirUp)))
		a.Eng.RunUntil(sim.Time(30 * time.Second))
		delays[buf] = a.UpMon.MeanDelayMs()
	}
	if delays[8] > 150 {
		t.Fatalf("8-pkt buffer mean delay = %.0f ms, want <150", delays[8])
	}
	if delays[256] < 1200 {
		t.Fatalf("256-pkt buffer mean delay = %.0f ms, want >1200 (bufferbloat)", delays[256])
	}
}

func TestBackboneUtilizationLadder(t *testing.T) {
	// Table 1 backbone: low ~16%, medium ~50%, high ~98%.
	utils := map[string]float64{}
	for _, name := range []string{"short-low", "short-medium", "short-high"} {
		b := NewBackbone(Config{BufferDown: 749, Seed: 6})
		b.StartWorkload(MustSpec(LookupBackboneScenario(name)))
		b.Eng.RunUntil(sim.Time(30 * time.Second))
		utils[name] = b.DownLink.Monitor.MeanUtilization(b.Eng.Now())
	}
	if !(utils["short-low"] < utils["short-medium"] && utils["short-medium"] < utils["short-high"]) {
		t.Fatalf("utilization not monotone: %+v", utils)
	}
	if utils["short-low"] > 40 {
		t.Fatalf("short-low = %.1f%%, want <40%%", utils["short-low"])
	}
	if utils["short-high"] < 80 {
		t.Fatalf("short-high = %.1f%%, want >80%%", utils["short-high"])
	}
}

func TestBackboneOverloadLoss(t *testing.T) {
	b := NewBackbone(Config{BufferDown: 749, Seed: 7})
	b.StartWorkload(MustSpec(LookupBackboneScenario("short-overload")))
	b.Eng.RunUntil(sim.Time(20 * time.Second))
	util := b.DownLink.Monitor.MeanUtilization(b.Eng.Now())
	if util < 90 {
		t.Fatalf("overload utilization = %.1f%%, want >90%%", util)
	}
	if b.DownMon.LossRate() == 0 {
		t.Fatal("overload shows no loss")
	}
}

func TestHarpoonSinkAndCompletion(t *testing.T) {
	a := NewAccess(Config{BufferUp: 64, BufferDown: 64, Seed: 8})
	a.StartWorkload(MustSpec(LookupAccessScenario("short-few", DirDown)))
	a.Eng.RunUntil(sim.Time(30 * time.Second))
	st := a.DownGen.Stats()
	if st.Completed == 0 {
		t.Fatal("no harpoon transfers completed")
	}
	if st.BytesMoved == 0 {
		t.Fatal("no bytes moved")
	}
	if st.Concurrent.N() == 0 {
		t.Fatal("no concurrency samples")
	}
}

func TestFileSizeWeibullPositive(t *testing.T) {
	rng := sim.NewRNG(9, "w")
	for i := 0; i < 10000; i++ {
		if harpoon.FileSizeWeibull(rng) < 1 {
			t.Fatal("non-positive file size")
		}
	}
}

func TestAQMQueueFactoryOverride(t *testing.T) {
	called := false
	cfg := Config{
		BufferUp:   64,
		BufferDown: 64,
		Seed:       10,
		UpQueue: func(capPkts int) netem.Queue {
			called = true
			return netem.NewDropTail(capPkts)
		},
	}
	NewAccess(cfg)
	if !called {
		t.Fatal("queue factory not used")
	}
}

func TestDataPendulum(t *testing.T) {
	// Section 6: with bidirectional long workloads and a bloated
	// uplink buffer, the uplink queueing delay virtually increases the
	// BDP and the downlink utilization drops below its downstream-only
	// value.
	mkUtil := func(dir Direction) float64 {
		a := NewAccess(Config{BufferUp: 256, BufferDown: 8, Seed: 11})
		a.StartWorkload(MustSpec(LookupAccessScenario("long-few", dir)))
		a.Eng.RunUntil(sim.Time(40 * time.Second))
		return a.DownLink.Monitor.MeanUtilization(a.Eng.Now())
	}
	downOnly := mkUtil(DirDown)
	bidir := mkUtil(DirBidir)
	if bidir >= downOnly {
		t.Fatalf("bidirectional downlink util %.1f%% >= down-only %.1f%% (no data pendulum)",
			bidir, downOnly)
	}
}

func TestLinkParamsDefaults(t *testing.T) {
	lp := LinkParams{}.WithDefaults()
	if lp.UpRate != AccessUpRate || lp.DownRate != AccessDownRate ||
		lp.ClientDelay != AccessClientDelay || lp.ServerDelay != AccessServerDelay {
		t.Fatalf("defaults = %+v", lp)
	}
	if !(LinkParams{}).IsDefault() {
		t.Fatal("zero params not default")
	}
	if !(LinkParams{UpRate: AccessUpRate}).IsDefault() {
		t.Fatal("explicit paper uplink rate not default")
	}
	if (LinkParams{UpRate: 2e6}).IsDefault() {
		t.Fatal("custom uplink rate claimed default")
	}
}

func TestNewAccessCustomLink(t *testing.T) {
	lp := LinkParams{UpRate: 1e9, DownRate: 1e9, ClientDelay: 2 * time.Millisecond, ServerDelay: 10 * time.Millisecond}
	a := NewAccess(Config{BufferUp: 64, BufferDown: 64, Seed: 3, Link: lp})
	if a.UpLink.Rate != 1e9 || a.DownLink.Rate != 1e9 {
		t.Fatalf("bottleneck rates = %v/%v, want 1e9", a.UpLink.Rate, a.DownLink.Rate)
	}
	// Zero fields keep the paper values.
	b := NewAccess(Config{BufferUp: 64, BufferDown: 64, Seed: 3, Link: LinkParams{DownRate: 50e6}})
	if b.UpLink.Rate != AccessUpRate || b.DownLink.Rate != 50e6 {
		t.Fatalf("partial override = %v/%v", b.UpLink.Rate, b.DownLink.Rate)
	}
}

func TestScenarioLookupErrors(t *testing.T) {
	if _, err := LookupAccessScenario("nope", DirDown); err == nil {
		t.Fatal("unknown access scenario accepted")
	}
	if _, err := LookupBackboneScenario("nope"); err == nil {
		t.Fatal("unknown backbone scenario accepted")
	}
	if s, err := LookupAccessScenario("long-few", DirUp); err != nil || sessions(s.Up) == 0 {
		t.Fatalf("long-few up: %+v, %v", s, err)
	}
	if _, err := LookupAccessScenario("long-few", Direction(99)); err == nil {
		t.Fatal("out-of-range direction accepted")
	}
}

// runSummary is what a short workload run leaves behind: the event
// counts, both queue monitors' totals and both link monitors' totals.
// (Packet-pool recycle counts are left out: a warm pool legitimately
// recycles more than a cold one.)
type runSummary struct {
	events            sim.Metrics
	upQ, downQ        [3]uint64
	upDelay, dnDelay  float64
	upBytes, dnBytes  uint64
	upUtil, downUtil  float64
	upSamples, dnSamp int
}

func summarize(tb *Testbed) runSummary {
	now := tb.Eng.Now()
	down := tb.DownLinkMonitor()
	s := runSummary{
		events:   tb.Eng.Metrics(),
		downQ:    [3]uint64{tb.DownMon.Enqueued, tb.DownMon.Dropped, tb.DownMon.Dequeued},
		dnDelay:  tb.DownMon.MeanDelayMs(),
		dnBytes:  down.BytesSent,
		downUtil: down.MeanUtilization(now),
		dnSamp:   down.UtilSamples.N(),
	}
	if tb.UpMon != nil {
		up := tb.UpLinkMonitor()
		s.upQ = [3]uint64{tb.UpMon.Enqueued, tb.UpMon.Dropped, tb.UpMon.Dequeued}
		s.upDelay = tb.UpMon.MeanDelayMs()
		s.upBytes, s.upUtil, s.upSamples = up.BytesSent, up.MeanUtilization(now), up.UtilSamples.N()
	}
	return s
}

// TestShapesResetLikeTheyBuild: for every shape and every receiver
// graph, a carcass reused after a different configuration of the same
// graph (other buffers, seed, rates, delays, CC, jitter, MAC knobs —
// and a workload left mid-flight) must replay a cold build event for
// event. This is the property the cell engine's scratch reuse, and
// with it the bit-identity of warm and cold sweeps, rests on.
func TestShapesResetLikeTheyBuild(t *testing.T) {
	shapes := []struct {
		name     string
		build    func(Config) *Testbed
		workload Spec
	}{
		{"access", NewAccess, MustSpec(LookupAccessScenario("short-few", DirBidir))},
		{"backbone", NewBackbone, MustSpec(LookupBackboneScenario("short-low"))},
	}
	// Each graph names the configuration under test and a different
	// one of the same graph that dirties the carcass first.
	graphs := []struct {
		name        string
		cfg, before Config
	}{
		{"plain",
			Config{BufferUp: 8, BufferDown: 64},
			Config{BufferUp: 256, BufferDown: 16, CC: tcp.NewReno, TCP: tcp.Config{SACK: true},
				Link: LinkParams{UpRate: 5e6, DownRate: 50e6, ClientDelay: time.Millisecond, ServerDelay: 40 * time.Millisecond}}},
		{"jitter",
			Config{BufferUp: 16, BufferDown: 32, Jitter: 3 * time.Millisecond},
			Config{BufferUp: 64, BufferDown: 64, Jitter: 20 * time.Millisecond}},
		{"wifi",
			Config{BufferUp: 32, BufferDown: 32, Link: LinkParams{UpRate: 65e6, DownRate: 65e6, Wifi: WifiParams{Stations: 4}}},
			Config{BufferUp: 8, BufferDown: 128, Link: LinkParams{UpRate: 20e6, DownRate: 20e6, Wifi: WifiParams{Stations: 12, RetryLimit: 2, MaxAggFrames: 1}}}},
		{"reorder",
			Config{BufferUp: 16, BufferDown: 64, Link: LinkParams{Reorder: 0.05}},
			Config{BufferUp: 64, BufferDown: 16, Link: LinkParams{Reorder: 0.4}}},
	}
	run := func(tb *Testbed, wl Spec, d time.Duration) runSummary {
		tb.StartWorkload(wl)
		tb.Eng.RunFor(d)
		return summarize(tb)
	}
	for _, sh := range shapes {
		for _, g := range graphs {
			sh, g := sh, g
			t.Run(sh.name+"/"+g.name, func(t *testing.T) {
				t.Parallel()
				cfg := g.cfg
				cfg.Seed = 21
				cold := run(sh.build(cfg), sh.workload, 5*time.Second)
				if cold.events.EventsOwned == 0 || cold.downQ[0] == 0 || cold.dnSamp == 0 {
					t.Fatalf("cold run did nothing: %+v", cold)
				}

				var scr Scratch
				before := g.before
				before.Seed, before.Scratch = 99, &scr
				dirty := sh.build(before)
				run(dirty, sh.workload, 3*time.Second)
				scr.Reset()
				cfg.Scratch = &scr
				warm := sh.build(cfg)
				if warm != dirty {
					t.Fatal("same-graph configuration did not reuse the cached carcass")
				}
				if got := run(warm, sh.workload, 5*time.Second); got != cold {
					t.Fatalf("reused carcass diverged from cold build:\n warm: %+v\n cold: %+v", got, cold)
				}
			})
		}
	}
}
