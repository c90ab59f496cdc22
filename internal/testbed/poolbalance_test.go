package testbed

import (
	"testing"
	"time"

	"bufferqoe/internal/mac"
	"bufferqoe/internal/tcp"
)

// TestPoolsBalanceAtCellEnd checks the ownership rule — whoever drops
// the packet drops the payload — on the two kinds of cell that drop the
// most: at cell end, every packet a node originated has either been
// recycled or is still held by a queue, a transmitter or a delay line,
// and every TCP segment drawn from the pool has either been handed
// back or rides one of those held packets. What is still held is what
// rewinding the carcass releases, so after the rewind (minus the
// counter reset) both pools must balance exactly.
func TestPoolsBalanceAtCellEnd(t *testing.T) {
	wifi := LinkParams{UpRate: 65e6, DownRate: 65e6, ClientDelay: 2 * time.Millisecond,
		ServerDelay: 15 * time.Millisecond, Wifi: WifiParams{Stations: 4}}
	cases := []struct {
		name     string
		cfg      Config
		workload Spec
	}{
		{"wifi-bbr", Config{BufferUp: 64, BufferDown: 64, Seed: 42, Link: wifi, CC: tcp.NewBBRLite},
			MustSpec(LookupAccessScenario("long-few", DirDown))},
		{"access-droptail-8", Config{BufferUp: 8, BufferDown: 8, Seed: 42},
			MustSpec(LookupAccessScenario("short-many", DirBidir))},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tb := NewAccess(tc.cfg)
			tb.StartWorkload(tc.workload)
			tb.Eng.RunFor(10 * time.Second)

			sent := tb.Net.PacketsSent()
			var segments uint64
			for _, st := range tb.allStacks {
				segments += st.SegmentsSent()
			}
			drops := tb.DownMon.Dropped
			if tb.UpMon != nil {
				drops += tb.UpMon.Dropped
			}
			if tb.DownWifi != nil {
				drops += tb.DownWifi.RetryDrops + tb.UpWifi.RetryDrops
			}
			if drops == 0 {
				t.Fatal("the cell dropped nothing: it does not exercise the rule")
			}
			held := sent - tb.Net.PacketRecycles()
			if held == 0 || held > sent/10 {
				t.Fatalf("%d of %d packets held mid-run: want a few in flight, not none or most", held, sent)
			}
			if back := tb.Net.PayloadRecycles(); back > segments || segments-back > held {
				t.Fatalf("%d segments obtained, %d handed back, but only %d packets are held to carry the rest", segments, back, held)
			}

			// Rewind as reuse and configure do, keeping the counters.
			tb.Eng.Reset()
			for _, l := range tb.lanLinks {
				l.Reset()
			}
			if tb.UpLink != nil {
				tb.UpLink.Reset()
				tb.DownLink.Reset()
			} else {
				tb.UpWifi.Reset(mac.Params{}, nil, nil)
				tb.DownWifi.Reset(mac.Params{}, nil, nil)
			}
			if got := tb.Net.PacketRecycles(); got != sent {
				t.Errorf("packets: %d originated, %d recycled after the rewind (%d dropped in-network)", sent, got, drops)
			}
			if got := tb.Net.PayloadRecycles(); got != segments {
				t.Errorf("segments: %d obtained, %d handed back after the rewind (%d dropped in-network)", segments, got, drops)
			}
		})
	}
}
