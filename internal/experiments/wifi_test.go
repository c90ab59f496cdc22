package experiments

import (
	"testing"
	"time"

	"bufferqoe/internal/engine"
	"bufferqoe/internal/testbed"
)

// TestEngineVersionUnchangedByWifiAxes pins the cache compatibility
// contract of the wifi/reorder/BBR axes: they extend the canonical
// spec encoding with new fragments instead of changing the meaning of
// existing cells, so every result persisted before the axes existed
// is still valid and engine.Version must not have been bumped.
func TestEngineVersionUnchangedByWifiAxes(t *testing.T) {
	if engine.Version != "1" {
		t.Fatalf("engine.Version = %q; the wifi/BBR axes must not invalidate stored wired cells", engine.Version)
	}
}

// TestLinkTagWifiReorderEncoding pins the canonical link encodings:
// the default link stays "", pre-wifi wired encodings are
// byte-identical to what older stores recorded, and the wifi/reorder
// fragments appear exactly when active with defaults filled — the
// injectivity the cell cache and persistent store key on.
func TestLinkTagWifiReorderEncoding(t *testing.T) {
	cases := []struct {
		name string
		lp   testbed.LinkParams
		want string
	}{
		{"default", testbed.LinkParams{}, ""},
		{"default-spelled-out", testbed.LinkParams{
			UpRate: testbed.AccessUpRate, DownRate: testbed.AccessDownRate,
			ClientDelay: testbed.AccessClientDelay, ServerDelay: testbed.AccessServerDelay,
		}, ""},
		{"wired-custom", testbed.LinkParams{UpRate: 1e9, DownRate: 1e9,
			ClientDelay: 2 * time.Millisecond, ServerDelay: 10 * time.Millisecond},
			"up=1e+09;down=1e+09;cd=2ms;sd=10ms"},
		{"wifi-defaults-filled", testbed.LinkParams{UpRate: 65e6, DownRate: 65e6,
			ClientDelay: 2 * time.Millisecond, ServerDelay: 15 * time.Millisecond,
			Wifi: testbed.WifiParams{Stations: 4}},
			"up=6.5e+07;down=6.5e+07;cd=2ms;sd=15ms;wifi=4;retry=7;agg=16"},
		{"wifi-tuned", testbed.LinkParams{UpRate: 65e6, DownRate: 65e6,
			ClientDelay: 2 * time.Millisecond, ServerDelay: 15 * time.Millisecond,
			Wifi: testbed.WifiParams{Stations: 10, RetryLimit: 3, MaxAggFrames: 1}},
			"up=6.5e+07;down=6.5e+07;cd=2ms;sd=15ms;wifi=10;retry=3;agg=1"},
		{"reorder-on-default-rates", testbed.LinkParams{Reorder: 0.05},
			"up=1e+06;down=1.6e+07;cd=5ms;sd=20ms;ro=0.05"},
		{"wifi-plus-reorder", testbed.LinkParams{UpRate: 65e6, DownRate: 65e6,
			ClientDelay: 2 * time.Millisecond, ServerDelay: 15 * time.Millisecond,
			Wifi: testbed.WifiParams{Stations: 4}, Reorder: 0.02},
			"up=6.5e+07;down=6.5e+07;cd=2ms;sd=15ms;wifi=4;retry=7;agg=16;ro=0.02"},
	}
	seen := map[string]string{}
	for _, c := range cases {
		got := linkTag(c.lp)
		if got != c.want {
			t.Fatalf("%s: linkTag = %q, want %q", c.name, got, c.want)
		}
		if prev, dup := seen[got]; dup && got != "" {
			t.Fatalf("%s and %s share encoding %q", c.name, prev, got)
		}
		seen[got] = c.name
	}
}

// TestWifiSpecValidation: normalize rejects wifi/reorder
// configurations that would break the injective encoding or have no
// physical meaning, and accepts the real axes (including on the probe
// batch path).
func TestWifiSpecValidation(t *testing.T) {
	wifi := testbed.LinkParams{UpRate: 65e6, DownRate: 65e6,
		ClientDelay: 2 * time.Millisecond, ServerDelay: 15 * time.Millisecond,
		Wifi: testbed.WifiParams{Stations: 4}}
	good := []ProbeSpec{
		{Buffer: 64, Media: "voip", Link: wifi, CC: "bbr"},
		{Buffer: 64, Media: "web", Link: testbed.LinkParams{Reorder: 0.1}},
		{Buffer: 64, Media: "voip", CC: "bbr"},
	}
	for i, p := range good {
		if err := p.Validate(); err != nil {
			t.Fatalf("good wifi spec %d rejected: %v", i, err)
		}
	}
	neg := wifi
	neg.Wifi.Stations = -1
	orphanRetry := testbed.LinkParams{UpRate: 65e6, Wifi: testbed.WifiParams{RetryLimit: 3}}
	badRetry := wifi
	badRetry.Wifi.RetryLimit = -2
	backboneWifi := ProbeSpec{Buffer: 64, Media: "voip", Testbed: "backbone", Scenario: "long", Link: wifi}
	bad := []ProbeSpec{
		{Buffer: 64, Media: "voip", Link: neg},
		{Buffer: 64, Media: "voip", Link: orphanRetry},
		{Buffer: 64, Media: "voip", Link: badRetry},
		{Buffer: 64, Media: "voip", Link: testbed.LinkParams{Reorder: -0.5}},
		{Buffer: 64, Media: "voip", Link: testbed.LinkParams{Reorder: 1.0}},
		backboneWifi,
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Fatalf("bad wifi spec %d accepted: %+v", i, p)
		}
	}
}

// TestWifiBBRSeedPairing: wifi/BBR cells must share the CRN seed of
// their wired siblings — the link and CC axes are excluded from the
// seed key so paired comparisons across link types use common random
// numbers, while caching separately.
func TestWifiBBRSeedPairing(t *testing.T) {
	s := NewSession(0)
	o := tiny()
	wifi := testbed.LinkParams{UpRate: 65e6, DownRate: 65e6,
		ClientDelay: 2 * time.Millisecond, ServerDelay: 15 * time.Millisecond,
		Wifi: testbed.WifiParams{Stations: 2}}
	specs := []ProbeSpec{
		{Scenario: "short-few", Direction: testbed.DirDown, Buffer: 64, Media: "voip"},
		{Scenario: "short-few", Direction: testbed.DirDown, Buffer: 64, Media: "voip", Link: wifi, CC: "bbr"},
	}
	vals, err := s.ProbeBatch(t.Context(), specs, o)
	if err != nil {
		t.Fatal(err)
	}
	if vals[0].ListenMOS == vals[1].ListenMOS && vals[0].TalkMOS == vals[1].TalkMOS {
		t.Fatalf("wired and wifi/BBR cells returned identical scores %+v — cache keys may have collided", vals[0])
	}
	if st := s.EngineStats(); st.Misses != 2 {
		t.Fatalf("expected 2 distinct cells, simulated %d", st.Misses)
	}
}
