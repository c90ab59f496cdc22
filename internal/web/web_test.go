package web

import (
	"testing"
	"time"

	"bufferqoe/internal/qoe"
	"bufferqoe/internal/sim"
	"bufferqoe/internal/testbed"
)

func TestPageBytes(t *testing.T) {
	if PageBytes() != 80800 {
		t.Fatalf("page bytes = %d, want 80800 (15+5.8+30+30 KB)", PageBytes())
	}
}

func fetchOnce(t *testing.T, a *testbed.Testbed, deadline time.Duration) Result {
	t.Helper()
	RegisterServer(a.MediaServerTCP, Port)
	var res *Result
	Fetch(a.MediaClientTCP, a.MediaServer.Addr(Port), deadline, func(r Result) { res = &r })
	a.Eng.RunFor(deadline + 10*time.Second)
	if res == nil {
		t.Fatal("fetch never finished")
	}
	return *res
}

func TestBaselinePLT(t *testing.T) {
	// Paper Section 9.2: the fastest access-testbed PLT is ~0.56 s
	// (14 RTTs at ~40-50 ms), mapping to (nearly) excellent QoE.
	a := testbed.NewAccess(testbed.Config{BufferUp: 64, BufferDown: 64, Seed: 1})
	r := fetchOnce(t, a, 30*time.Second)
	if !r.Completed {
		t.Fatal("baseline fetch did not complete")
	}
	if r.PLT < 300*time.Millisecond || r.PLT > 1200*time.Millisecond {
		t.Fatalf("baseline PLT = %v, want ~0.5-1s", r.PLT)
	}
	mos := qoe.AccessWebModel().MOS(r.PLT)
	if mos < 3.5 {
		t.Fatalf("baseline MOS = %v, want good", mos)
	}
	if r.Retransmissions != 0 {
		t.Fatalf("baseline retransmissions = %d", r.Retransmissions)
	}
}

func TestBackboneBaselinePLT(t *testing.T) {
	b := testbed.NewBackbone(testbed.Config{BufferDown: 749, Seed: 2})
	RegisterServer(b.MediaServerTCP, Port)
	var res *Result
	Fetch(b.MediaClientTCP, b.MediaServer.Addr(Port), 30*time.Second, func(r Result) { res = &r })
	b.Eng.RunFor(40 * time.Second)
	if res == nil || !res.Completed {
		t.Fatal("fetch failed")
	}
	// The paper measures ~0.85 s at 14 RTTs; our IW-3 stack needs
	// fewer round trips, landing near 0.5 s at the same 60 ms RTT.
	if res.PLT < 350*time.Millisecond || res.PLT > 1200*time.Millisecond {
		t.Fatalf("backbone baseline PLT = %v, want ~0.5s", res.PLT)
	}
}

func TestUplinkCongestionDestroysPLT(t *testing.T) {
	// Figure 10b: upload congestion with bloated buffers pushes PLTs
	// to many seconds (bad QoE).
	a := testbed.NewAccess(testbed.Config{BufferUp: 256, BufferDown: 64, Seed: 3})
	a.StartWorkload(testbed.MustSpec(testbed.LookupAccessScenario("long-many", testbed.DirUp)))
	a.Eng.RunFor(8 * time.Second)
	r := fetchOnce(t, a, 60*time.Second)
	if r.PLT < 3*time.Second {
		t.Fatalf("congested-uplink PLT = %v, want >= 3s", r.PLT)
	}
	mos := qoe.AccessWebModel().MOS(r.PLT)
	if mos > 1.8 {
		t.Fatalf("congested-uplink MOS = %v, want bad", mos)
	}
}

func TestSmallUplinkBufferImprovesPLTUnderLongFew(t *testing.T) {
	// Figure 10b long-few row: small uplink buffers cut the median
	// PLT dramatically (20.5 s at 256 pkts vs 1.3 s at 8 pkts in the
	// paper).
	plt := map[int]time.Duration{}
	for _, buf := range []int{8, 256} {
		a := testbed.NewAccess(testbed.Config{BufferUp: buf, BufferDown: 64, Seed: 4})
		a.StartWorkload(testbed.MustSpec(testbed.LookupAccessScenario("long-few", testbed.DirUp)))
		a.Eng.RunFor(8 * time.Second)
		r := fetchOnce(t, a, 60*time.Second)
		plt[buf] = r.PLT
	}
	if plt[8] >= plt[256] {
		t.Fatalf("PLT(8)=%v >= PLT(256)=%v under long-few upload", plt[8], plt[256])
	}
}

func TestDeadlineAbort(t *testing.T) {
	// A fetch against a server that cannot answer (no listener) must
	// fire the deadline path exactly once.
	a := testbed.NewAccess(testbed.Config{BufferUp: 8, BufferDown: 8, Seed: 5})
	count := 0
	var last Result
	Fetch(a.MediaClientTCP, a.MediaServer.Addr(Port), 5*time.Second, func(r Result) {
		count++
		last = r
	})
	a.Eng.RunFor(2 * time.Minute)
	if count != 1 {
		t.Fatalf("onDone fired %d times", count)
	}
	if last.Completed {
		t.Fatal("fetch against dead server completed")
	}
}

func TestSequentialObjectsSingleConnection(t *testing.T) {
	// The whole page must arrive over one connection: the server
	// stack should see exactly one connection live during the fetch.
	a := testbed.NewAccess(testbed.Config{BufferUp: 64, BufferDown: 64, Seed: 6})
	RegisterServer(a.MediaServerTCP, Port)
	maxConns := 0
	var tick sim.Func
	tick = func() {
		if c := a.MediaServerTCP.ConnCount(); c > maxConns {
			maxConns = c
		}
		a.Eng.ScheduleHandler(50*time.Millisecond, tick)
	}
	a.Eng.ScheduleHandler(0, tick)
	done := false
	Fetch(a.MediaClientTCP, a.MediaServer.Addr(Port), 30*time.Second, func(r Result) { done = r.Completed })
	a.Eng.RunFor(10 * time.Second)
	if !done {
		t.Fatal("fetch incomplete")
	}
	if maxConns != 1 {
		t.Fatalf("server saw %d concurrent connections, want 1", maxConns)
	}
}

func TestRepeatedFetchesIndependent(t *testing.T) {
	a := testbed.NewAccess(testbed.Config{BufferUp: 64, BufferDown: 64, Seed: 7})
	RegisterServer(a.MediaServerTCP, Port)
	var plts []time.Duration
	var next sim.Func
	next = func() {
		Fetch(a.MediaClientTCP, a.MediaServer.Addr(Port), 30*time.Second, func(r Result) {
			plts = append(plts, r.PLT)
			if len(plts) < 5 {
				a.Eng.ScheduleHandler(time.Second, next)
			}
		})
	}
	a.Eng.ScheduleHandler(0, next)
	a.Eng.RunFor(60 * time.Second)
	if len(plts) != 5 {
		t.Fatalf("completed %d fetches", len(plts))
	}
	// All uncongested fetches should be fast and similar.
	for _, p := range plts {
		if p > 2*time.Second {
			t.Fatalf("idle-network PLT = %v", p)
		}
	}
}
