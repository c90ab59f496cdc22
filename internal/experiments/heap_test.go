package experiments

import (
	"runtime"
	"testing"
	"time"

	"bufferqoe/internal/telemetry"
	"bufferqoe/internal/testbed"
)

// TestHeapStaysTopologySized is the budget the event core is held to:
// the timer heap is as deep as the topology is wide (links,
// connections, calls), not as deep as the traffic is long (packets in
// flight, media frames not yet sent). One pinned cell per shape, at
// the facade's default options and seed 42, must stay under its bound
// — about twice what it measures today (106, 106, 345, 42, and 4,606
// for the 2,304 web loops of backbone short-overload) and well under
// what per-packet delivery events and pre-scheduled media ticks used
// to cost (953, 1733, 1336, 2044; DESIGN.md "Event core internals"
// has the population table) — while firing exactly the
// events it always fired: moving a stream of events from the heap into
// its owner may not add, drop or merge one. The next per-packet or
// per-frame pre-scheduling fails here, not in a profile.
//
// The near tier — the sorted run nearly every event pops from, where a
// push costs a shift per slot due sooner — has a budget of its own,
// about twice what it measures (11, 11, 16, 18, 18): a change that
// files far-off deadlines among the timers due within a millisecond
// fails here too. backbone short-overload is the deepest near tier of
// the backbone shapes (tied with short-high).
func TestHeapStaysTopologySized(t *testing.T) {
	wifi := testbed.LinkParams{UpRate: 65e6, DownRate: 65e6, ClientDelay: 2 * time.Millisecond,
		ServerDelay: 15 * time.Millisecond, Wifi: testbed.WifiParams{Stations: 4}}
	cases := []struct {
		name    string
		spec    ProbeSpec
		maxHeap int    // bound on SimMetrics.HeapHighWater
		maxNear int    // bound on SimMetrics.NearHighWater
		events  uint64 // events fired, unchanged since one pooled event per packet
	}{
		{"access-voip", ProbeSpec{Scenario: "long-many", Direction: testbed.DirDown, Buffer: 64, Media: "voip"},
			256, 24, 1183975},
		{"access-video", ProbeSpec{Scenario: "long-many", Direction: testbed.DirDown, Buffer: 64, Media: "video"},
			256, 24, 755589},
		{"backbone-voip", ProbeSpec{Testbed: "backbone", Scenario: "short-medium", Buffer: 749, Media: "voip"},
			768, 32, 5452177},
		{"wifi-codel-bbr-voip", ProbeSpec{Scenario: "long-few", Direction: testbed.DirDown, Buffer: 64, Media: "voip",
			Link: wifi, AQM: "codel", CC: "bbr"},
			128, 36, 5541677},
		{"backbone-overload-web", ProbeSpec{Testbed: "backbone", Scenario: "short-overload", Buffer: 749, Media: "web"},
			9216, 36, 7948048},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			s := NewSession(1)
			col := telemetry.New()
			s.SetCollector(col)
			if _, err := probeOne(t.Context(), s, tc.spec, Options{}); err != nil {
				t.Fatal(err)
			}
			m := col.Snapshot().Sim
			if m.HeapHighWater >= tc.maxHeap {
				t.Errorf("heap high water = %d, budget < %d: something schedules per packet or per frame again", m.HeapHighWater, tc.maxHeap)
			}
			if m.NearHighWater >= tc.maxNear {
				t.Errorf("near-tier high water = %d, budget < %d: far-off deadlines are filed among the timers due soon", m.NearHighWater, tc.maxNear)
			}
			if m.Events() != tc.events {
				t.Errorf("events fired = %d, want %d: the cell no longer runs the same simulation", m.Events(), tc.events)
			}
		})
	}
}

// TestCellMemoryStaysTopologySized is to memory what
// TestHeapStaysTopologySized is to the timer heap: a cell's memory is
// as large as its topology (nodes, links, stacks, connections), not as
// large as its traffic. One cell per shape, on a fresh one-worker
// session at the default options, must stay under budgets of about
// twice what it measures today, both in bytes allocated and in bytes
// still live after a collection (the worker's scratch and testbed
// carcass, the session's cache and content). While every bottleneck
// dequeue appended its delay to an unread per-packet sample, these
// cells allocated 29.2, 20.7 and 5.1 MB and retained 7.8, 4.5 and
// 1.6 MB. The horizon case runs the backbone long cell at 12
// repetitions instead of 3: four times the simulated time may not cost
// half as much memory again (the per-packet sample made it 3.6x).
func TestCellMemoryStaysTopologySized(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates three backbone cells")
	}
	const mb = 1 << 20
	backboneLong := ProbeSpec{Testbed: "backbone", Scenario: "long", Buffer: 749, Media: "voip"}
	cases := []struct {
		name                  string
		spec                  ProbeSpec
		maxAlloc, maxRetained uint64 // measured: 2.7/2.4, 3.1/1.0, 0.65/0.53 MB
	}{
		{"backbone-long-voip", backboneLong, 11 * mb / 2, 5 * mb},
		{"backbone-short-medium-voip", ProbeSpec{Testbed: "backbone", Scenario: "short-medium", Buffer: 749, Media: "voip"},
			6 * mb, 9 * mb / 4},
		{"access-long-many-256-voip", ProbeSpec{Scenario: "long-many", Direction: testbed.DirDown, Buffer: 256, Media: "voip"},
			13 * mb / 10, 6 * mb / 5},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			alloc, retained := cellMemory(t, tc.spec, Options{})
			t.Logf("allocated %d B, retained %d B", alloc, retained)
			if alloc > tc.maxAlloc {
				t.Errorf("cell allocated %d B, budget %d: something records per packet again", alloc, tc.maxAlloc)
			}
			if retained > tc.maxRetained {
				t.Errorf("cell retained %d B after GC, budget %d: a worker keeps per-packet state across cells", retained, tc.maxRetained)
			}
		})
	}
	t.Run("backbone-long-voip-horizon", func(t *testing.T) {
		short, _ := cellMemory(t, backboneLong, Options{Reps: 3})
		long, _ := cellMemory(t, backboneLong, Options{Reps: 12})
		t.Logf("allocated %d B at 3 reps, %d B at 12 reps", short, long)
		if 2*long >= 3*short {
			t.Errorf("12 reps allocate %.2fx what 3 reps do, budget < 1.5x: memory grows with simulated time", float64(long)/float64(short))
		}
	})
}

// cellMemory simulates one cell on a fresh one-worker session and
// returns the bytes it allocated and the bytes still live after a
// collection, session included.
func cellMemory(t *testing.T, spec ProbeSpec, o Options) (alloc, retained uint64) {
	t.Helper()
	s := NewSession(1)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	if _, err := probeOne(t.Context(), s, spec, o); err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(s)
	if after.HeapAlloc > before.HeapAlloc {
		retained = after.HeapAlloc - before.HeapAlloc
	}
	return after.TotalAlloc - before.TotalAlloc, retained
}
