// Package bench holds the repository's canonical micro- and
// macro-benchmarks as plain functions so they can run both under
// `go test -bench` (see bench_test.go) and from `qoebench -benchjson`,
// which records the perf trajectory in BENCH_<pr>.json artifacts.
//
// The three levels mirror the layers of the simulation core:
//
//   - SimCoreHandler: the event engine alone — a schedule/fire/stop
//     cycle, the atom every model operation decomposes into.
//   - LinkForward: the netem hot path — packets serialized through a
//     rate/delay link into a sink, exercising queue, transmit and
//     delivery events.
//   - WholeCell: one end-to-end access VoIP cell (testbed build,
//     background workload, one call, QoE evaluation), the unit the
//     parallel cell engine schedules thousands of times per sweep.
//     WholeCellTelemetry is the same cell observed by a live
//     telemetry collector, gating the overhead of telemetry-on runs.
//
// The second perf wave added per-phase benchmarks that isolate where
// a cell's time goes on the production (warm-scratch) path:
//
//   - TestbedBuild: resetting a cached testbed carcass in place, the
//     per-cell structural cost after the first cell on a worker.
//   - StatsAccumulate: one rep loop's worth of accumulation into a
//     reused stats.Sample plus the median extraction.
//   - CellRepLoop: a multi-repetition VoIP cell (the paper's actual
//     cell shape), dominated by simulation rather than build.
//
// WholeCell and WholeCellTelemetry measure the production path: a
// per-worker testbed.Scratch is warmed before the timer starts, so
// iterations pay the in-place carcass reset the cell engine pays,
// not the cold structural build. BENCH artifacts from PR 8 onward
// record this methodology.
package bench

import (
	"testing"
	"time"

	"bufferqoe/internal/netem"
	"bufferqoe/internal/sim"
	"bufferqoe/internal/stats"
	"bufferqoe/internal/tcp"
	"bufferqoe/internal/telemetry"
	"bufferqoe/internal/testbed"
	"bufferqoe/internal/voip"
)

// tickHandler counts pooled-handler fires.
type tickHandler struct{ n int }

func (h *tickHandler) Fire(now sim.Time) { h.n++ }

// SimCoreHandler measures one schedule/fire plus one arm/stop cycle on
// the event engine: a pooled one-shot that fires plus an owned timer
// armed and stopped, the pattern TCP retransmission timers and link
// ticks generate at scale.
func SimCoreHandler(b *testing.B) {
	b.ReportAllocs()
	eng := sim.New()
	h := &tickHandler{}
	var owned sim.Timer
	eng.InitTimer(&owned, h)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.ScheduleHandler(time.Microsecond, h)
		owned.Reset(time.Millisecond)
		owned.Stop()
		eng.RunFor(2 * time.Microsecond)
	}
	if h.n == 0 {
		b.Fatal("no events fired")
	}
}

// countingSink consumes delivered packets.
type countingSink struct{ n int }

func (s *countingSink) Receive(p *netem.Packet) { s.n++ }

// LinkForward measures one full-sized packet traversing a 100 Mbit/s
// link: enqueue, serialization event, delivery event, sink receive.
func LinkForward(b *testing.B) {
	b.ReportAllocs()
	eng := sim.New()
	sink := &countingSink{}
	link := netem.NewLink(eng, "bench", 100e6, time.Millisecond, netem.NewDropTail(256), sink)
	pkts := make([]netem.Packet, 64)
	for i := range pkts {
		pkts[i] = netem.Packet{Size: netem.MTU}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		link.Send(&pkts[i%len(pkts)])
		if (i+1)%len(pkts) == 0 {
			// Drain so the queue never overflows and every packet takes
			// the full transmit+deliver path.
			eng.RunFor(time.Second)
		}
	}
	eng.RunFor(time.Second)
	if sink.n == 0 {
		b.Fatal("no packets delivered")
	}
}

// WholeCell measures one small access VoIP cell end to end on the
// production path: reset the cached Figure 3a testbed carcass, start
// the short-few downstream workload, run one 8-second call through
// the congested link, and evaluate its MOS. The scratch is warmed
// before the timer starts, so every measured iteration pays exactly
// what the cell engine pays per cell after a worker's first — the
// in-place reset, not the cold structural build (TestbedBuild and
// the cold path are benchmarked separately).
func WholeCell(b *testing.B) {
	b.ReportAllocs()
	ref := voip.Activity(42, 0)
	wl, err := testbed.LookupAccessScenario("short-few", testbed.DirDown)
	if err != nil {
		b.Fatal(err)
	}
	var scr testbed.Scratch
	cell := func() {
		scr.Reset()
		a := testbed.NewAccess(testbed.Config{BufferUp: 64, BufferDown: 64, Seed: 42, Scratch: &scr})
		a.StartWorkload(wl)
		got := false
		a.Eng.ScheduleHandler(2*time.Second, sim.Func(func() {
			voip.Start(a.MediaServer, a.MediaClient, ref, 0, func(r voip.Result) {
				got = true
				a.Eng.Halt()
			})
		}))
		a.Eng.RunFor(60 * time.Second)
		if !got {
			b.Fatal("call did not complete")
		}
	}
	cell() // warm the carcass: pay the structural build outside the timer
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cell()
	}
}

// WholeCellTelemetry is WholeCell with a live telemetry collector
// observing every cell, mirroring the instrumentation the experiments
// layer applies (phase clock around build and sim, simulator metrics
// flushed per cell). The CI gate holds it to the same allocs/op
// budget as WholeCell and within a few percent of its wall time — the
// "cheap when on" half of the telemetry layer's contract.
func WholeCellTelemetry(b *testing.B) {
	b.ReportAllocs()
	ref := voip.Activity(42, 0)
	wl, err := testbed.LookupAccessScenario("short-few", testbed.DirDown)
	if err != nil {
		b.Fatal(err)
	}
	var scr testbed.Scratch
	// Warm the carcass outside the timer and before the collector, so
	// the cell count below stays exactly b.N.
	testbed.NewAccess(testbed.Config{BufferUp: 64, BufferDown: 64, Seed: 42, Scratch: &scr})
	col := telemetry.New()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pc := col.StartCell()
		scr.Reset()
		a := testbed.NewAccess(testbed.Config{BufferUp: 64, BufferDown: 64, Seed: 42, Scratch: &scr})
		a.StartWorkload(wl)
		got := false
		a.Eng.ScheduleHandler(2*time.Second, sim.Func(func() {
			voip.Start(a.MediaServer, a.MediaClient, ref, 0, func(r voip.Result) {
				got = true
				a.Eng.Halt()
			})
		}))
		pc.Mark(telemetry.PhaseBuild)
		a.Eng.RunFor(60 * time.Second)
		pc.Mark(telemetry.PhaseSim)
		if !got {
			b.Fatal("call did not complete")
		}
		sm := a.Eng.Metrics()
		pc.Done("bench/short-few@64", telemetry.SimMetrics{
			EventsPooled:   sm.EventsPooled,
			EventsOwned:    sm.EventsOwned,
			TimerRecycles:  sm.TimerRecycles,
			PacketRecycles: a.Net.PacketRecycles(),
			HeapHighWater:  sm.HeapHighWater,
			NearHighWater:  sm.NearHighWater,
		})
	}
	b.StopTimer()
	if col.PhaseCells.Value() != uint64(b.N) {
		b.Fatalf("collector saw %d cells, want %d", col.PhaseCells.Value(), b.N)
	}
}

// TestbedBuild measures the per-cell structural cost on the
// production path: resetting a cached access-testbed carcass in
// place and reconfiguring it (fresh bottleneck queues, rates,
// delays, stack resets). This is what every cell after a worker's
// first pays instead of the cold node/link/stack build.
func TestbedBuild(b *testing.B) {
	b.ReportAllocs()
	var scr testbed.Scratch
	cfg := testbed.Config{BufferUp: 64, BufferDown: 64, Seed: 42, Scratch: &scr}
	testbed.NewAccess(cfg) // cold build populates the carcass
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		scr.Reset()
		a := testbed.NewAccess(cfg)
		if a.Eng == nil {
			b.Fatal("no testbed")
		}
	}
}

// wifiLink is the WifiCell link configuration: the facade's 802.11n
// preset with four contending stations.
func wifiLink() testbed.LinkParams {
	return testbed.LinkParams{
		UpRate: 65e6, DownRate: 65e6,
		ClientDelay: 2 * time.Millisecond, ServerDelay: 15 * time.Millisecond,
		Wifi: testbed.WifiParams{Stations: 4},
	}
}

// WifiCell is WholeCell on the 802.11 last hop: the same warm-carcass
// VoIP cell with the bottleneck pair replaced by contending WifiLinks
// (CSMA/CA backoff, collision retries, A-MPDU aggregation). Gated in
// CI with its own allocs/op budget — the MAC's contend/transmit loop
// runs on owned timers and delay lines, so the wireless service
// process must not reintroduce per-event allocation.
func WifiCell(b *testing.B) {
	b.ReportAllocs()
	ref := voip.Activity(42, 0)
	wl, err := testbed.LookupAccessScenario("short-few", testbed.DirDown)
	if err != nil {
		b.Fatal(err)
	}
	var scr testbed.Scratch
	cfg := testbed.Config{BufferUp: 64, BufferDown: 64, Seed: 42, Scratch: &scr, Link: wifiLink()}
	cell := func() {
		scr.Reset()
		a := testbed.NewAccess(cfg)
		a.StartWorkload(wl)
		got := false
		a.Eng.ScheduleHandler(2*time.Second, sim.Func(func() {
			voip.Start(a.MediaServer, a.MediaClient, ref, 0, func(r voip.Result) {
				got = true
				a.Eng.Halt()
			})
		}))
		a.Eng.RunFor(60 * time.Second)
		if !got {
			b.Fatal("call did not complete")
		}
	}
	cell() // warm the wifi carcass outside the timer
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cell()
	}
}

// PacedCell is WholeCell with the background workload running BBR:
// every data segment the bulk flows send passes the pacing gate, so
// the paced send path's owned pacing timer is on the measured path.
// Its budget gates the claim that pacing is zero-allocation per
// segment.
func PacedCell(b *testing.B) {
	b.ReportAllocs()
	ref := voip.Activity(42, 0)
	wl, err := testbed.LookupAccessScenario("short-few", testbed.DirDown)
	if err != nil {
		b.Fatal(err)
	}
	var scr testbed.Scratch
	cfg := testbed.Config{BufferUp: 64, BufferDown: 64, Seed: 42, Scratch: &scr, CC: tcp.NewBBRLite}
	cell := func() {
		scr.Reset()
		a := testbed.NewAccess(cfg)
		a.StartWorkload(wl)
		got := false
		a.Eng.ScheduleHandler(2*time.Second, sim.Func(func() {
			voip.Start(a.MediaServer, a.MediaClient, ref, 0, func(r voip.Result) {
				got = true
				a.Eng.Halt()
			})
		}))
		a.Eng.RunFor(60 * time.Second)
		if !got {
			b.Fatal("call did not complete")
		}
	}
	cell()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cell()
	}
}

// StatsAccumulate measures one rep loop's worth of bookkeeping on a
// reused arena accumulator: reset, thirty observations (the paper's
// largest per-cell repetition count), and the median extraction the
// cell result reports. The backing array is warmed outside the
// timer, as the CellScratch arena warms it across a sweep.
func StatsAccumulate(b *testing.B) {
	b.ReportAllocs()
	var s stats.Sample
	loop := func() {
		s.Reset()
		for r := 0; r < 30; r++ {
			s.Add(1.0 + float64(r%7)*0.42)
		}
		if s.Median() <= 0 {
			b.Fatal("empty sample")
		}
	}
	loop() // grow the backing array outside the timer
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		loop()
	}
}

// CellRepLoop measures a multi-repetition VoIP cell on the
// production path — the paper's actual cell shape: a warm carcass
// reset, the background workload, three spaced bidirectional calls
// accumulating into reused samples, and the median MOS of each
// direction. Against WholeCell (one call) it shows how the per-cell
// fixed costs amortize across repetitions.
func CellRepLoop(b *testing.B) {
	const reps = 3
	b.ReportAllocs()
	var lib [2 * reps][]bool // the recordings the reps play
	for i := range lib {
		lib[i] = voip.Activity(42, i)
	}
	wl, err := testbed.LookupAccessScenario("short-few", testbed.DirDown)
	if err != nil {
		b.Fatal(err)
	}
	var scr testbed.Scratch
	var listen, talk stats.Sample
	cell := func() {
		scr.Reset()
		listen.Reset()
		talk.Reset()
		a := testbed.NewAccess(testbed.Config{BufferUp: 64, BufferDown: 64, Seed: 42, Scratch: &scr})
		a.StartWorkload(wl)
		for i := 0; i < reps; i++ {
			i := i
			a.Eng.ScheduleHandler(2*time.Second+time.Duration(i)*16*time.Second, sim.Func(func() {
				voip.StartPair(a.MediaClient, a.MediaServer,
					lib[2*i], lib[2*i+1], 0,
					func(pr voip.PairResult) {
						listen.Add(pr.Listen.MOS)
						talk.Add(pr.Talk.MOS)
						if listen.N() == reps {
							a.Eng.Halt()
						}
					})
			}))
		}
		a.Eng.RunFor(2 * time.Minute)
		if listen.N() != reps {
			b.Fatalf("completed %d of %d calls", listen.N(), reps)
		}
		if listen.Median() <= 0 || talk.Median() <= 0 {
			b.Fatal("no MOS")
		}
	}
	cell() // warm the carcass and sample backings outside the timer
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cell()
	}
}
