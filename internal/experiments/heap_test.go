package experiments

import (
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
