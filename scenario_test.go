package bufferqoe

import (
	"context"
	"fmt"
	"testing"
	"time"
)

// sprintfLabel is the fmt rendering Scenario.Label replaced, kept as
// its reference: labels name grid rows and reply fields, so Label must
// return exactly this string for every scenario.
func sprintfLabel(sc Scenario) string {
	if sc.Name != "" {
		return sc.Name
	}
	net := string(sc.Network)
	if net == "" {
		net = string(Access)
	}
	if sc.Link != nil {
		dims := sprintfRate(sc.Link.UpRate) + "/" + sprintfRate(sc.Link.DownRate)
		if sc.Link.ClientDelay != 0 || sc.Link.ServerDelay != 0 {
			dims += "@" + sprintfDelay(sc.Link.ClientDelay) + "/" + sprintfDelay(sc.Link.ServerDelay)
		}
		if sc.Link.Wifi.Stations > 0 {
			dims += fmt.Sprintf("+wifi%d", sc.Link.Wifi.Stations)
		}
		if sc.Link.Reorder > 0 {
			dims += fmt.Sprintf("+ro%g", sc.Link.Reorder)
		}
		net = "custom(" + dims + ")"
	}
	wl, dir, hasDir := sc.workloadLabel()
	out := net + "/" + wl
	if hasDir {
		out += "/" + dir
	}
	if sc.AQM != DropTail {
		out += "+" + string(sc.AQM)
	}
	if sc.CC != DefaultCC {
		out += "+" + string(sc.CC)
	}
	if sc.Jitter > 0 {
		out += "+j" + sc.Jitter.String()
	}
	if sc.BufferUp > 0 {
		out += "+bufup=" + fmt.Sprintf("%d", sc.BufferUp)
	}
	return out
}

func sprintfRate(bps float64) string {
	switch {
	case bps <= 0:
		return "dflt"
	case bps >= 1e9:
		return fmt.Sprintf("%gG", bps/1e9)
	case bps >= 1e6:
		return fmt.Sprintf("%gM", bps/1e6)
	default:
		return fmt.Sprintf("%gk", bps/1e3)
	}
}

func sprintfDelay(d time.Duration) string {
	if d <= 0 {
		return "dflt"
	}
	return d.String()
}

// FuzzScenarioLabel holds Scenario.Label byte-equal to sprintfLabel.
// The corpus is the preset links and the ones the cell-key pins use,
// plus non-integral rates, sub-microsecond delays and reorder
// probabilities.
func FuzzScenarioLabel(f *testing.F) {
	add := func(sc Scenario) {
		var l Link
		if sc.Link != nil {
			l = *sc.Link
		}
		f.Add(sc.Name, string(sc.Network), sc.Link != nil, l.UpRate, l.DownRate, int64(l.ClientDelay), int64(l.ServerDelay),
			l.Wifi.Stations, l.Reorder, sc.Workload, string(sc.Direction), string(sc.AQM), string(sc.CC), int64(sc.Jitter), sc.BufferUp)
	}
	links := []Link{
		DSLLink(), FiberLink(), LTELink(), WifiLink(4),
		{UpRate: 1e9, DownRate: 1e9, ClientDelay: 2 * time.Millisecond, ServerDelay: 10 * time.Millisecond},
		{UpRate: 65e6, DownRate: 65e6, ClientDelay: 2 * time.Millisecond, ServerDelay: 15 * time.Millisecond, Wifi: Wifi{Stations: 4}, Reorder: 0.01},
		{UpRate: 1.5e6, DownRate: 123456.789, ClientDelay: 500 * time.Nanosecond, ServerDelay: 1500 * time.Nanosecond},
		{UpRate: 2.5e9, DownRate: 999.5, ServerDelay: time.Microsecond + 1, Reorder: 1.0 / 3},
		{Reorder: 1e-7},
		{},
	}
	add(Scenario{Workload: "long-many", Direction: Up})
	add(Scenario{Network: Backbone, Workload: "long"})
	add(Scenario{Name: "named"})
	for i := range links {
		add(Scenario{Link: &links[i], Workload: "long-few", Direction: Down, AQM: CoDel, CC: BBR})
	}
	add(Scenario{Link: &links[6], Workload: "short-few", Jitter: 2500 * time.Microsecond, BufferUp: 16, AQM: "fqcodel"})
	f.Fuzz(func(t *testing.T, name, network string, hasLink bool, up, down float64, cd, sd int64,
		stations int, reorder float64, workload, dir, aqm, cc string, jitter int64, bufUp int) {
		sc := Scenario{
			Name: name, Network: Network(network), Workload: workload, Direction: Direction(dir),
			AQM: AQM(aqm), CC: CC(cc), Jitter: time.Duration(jitter), BufferUp: bufUp,
		}
		if hasLink {
			sc.Link = &Link{
				UpRate: up, DownRate: down, ClientDelay: time.Duration(cd), ServerDelay: time.Duration(sd),
				Wifi: Wifi{Stations: stations}, Reorder: reorder,
			}
		}
		if got, want := sc.Label(), sprintfLabel(sc); got != want {
			t.Fatalf("Label differs from the fmt rendering\n got:  %q\n want: %q", got, want)
		}
	})
}

// TestSweepFailsWholeOnOneBadCell: a sweep whose scenarios are valid
// but one of whose cells is not — a probe the scenario cannot take, a
// negative buffer — fails the whole call before any cell simulates,
// with the error the cell's own check gives; so does a faulty
// scenario, which reports the fault a lone cell meets first.
func TestSweepFailsWholeOnOneBadCell(t *testing.T) {
	wifi := WifiLink(4)
	good := []Scenario{
		{Workload: "short-few", Direction: Up},
		{Link: &wifi, Workload: "long-few", AQM: PIE, CC: BBR},
	}
	// bad indexes a scenario that fails with the sweep's probes, or is
	// -1 where only the buffer axis fails.
	cases := []struct {
		name string
		sw   Sweep
		bad  int
		want string
	}{
		{"profile on web", Sweep{Scenarios: good, Buffers: []int{8, 64},
			Probes: []Probe{{Media: VoIP}, {Media: Web, Profile: "HD"}}}, 1,
			`bufferqoe: probe "web" does not take a profile`},
		{"unknown profile", Sweep{Scenarios: good, Buffers: []int{8},
			Probes: []Probe{{Media: VoIP}, {Media: Video, Profile: "4K"}}}, 1,
			`bufferqoe: unknown profile "4K" (want SD or HD)`},
		{"negative buffer", Sweep{Scenarios: good, Buffers: []int{64, -8},
			Probes: []Probe{{Media: VoIP}}}, -1,
			`bufferqoe: scenario "access/short-few/up": experiments: invalid probe: buffer must be positive, got -8`},
		{"bad scenario, bad buffer", Sweep{Scenarios: []Scenario{{Link: &wifi, Workload: "long-few", AQM: "tail"}, good[0]}, Buffers: []int{-8},
			Probes: []Probe{{Media: Web}}}, 0,
			`bufferqoe: scenario "custom(65M/65M@2ms/15ms+wifi4)/long-few/down+tail": experiments: invalid probe: buffer must be positive, got -8`},
		{"bad scenario", Sweep{Scenarios: []Scenario{good[0], {Link: &wifi, Workload: "long-few", AQM: "tail"}}, Buffers: []int{8},
			Probes: []Probe{{Media: Web}}}, 1,
			`bufferqoe: scenario "custom(65M/65M@2ms/15ms+wifi4)/long-few/down+tail": experiments: invalid probe: unknown AQM "tail" (want droptail, codel, fq-codel, red, ared, pie)`},
	}
	for _, c := range cases {
		s := NewSession()
		_, err := s.SweepCtx(context.Background(), c.sw, Options{Reps: 1})
		if err == nil || err.Error() != c.want {
			t.Errorf("%s: err = %v\n want %s", c.name, err, c.want)
		}
		if st := s.Stats(); st.Misses+st.Hits != 0 {
			t.Errorf("%s: %d cells ran before the error", c.name, st.Misses+st.Hits)
		}
		// Recommend checks every probe on the scenario before its search.
		if c.bad < 0 {
			continue
		}
		rs := RecommendSpec{Scenario: c.sw.Scenarios[c.bad], Probes: c.sw.Probes, Buffers: []int{8, 64}}
		if _, err := s.Recommend(context.Background(), rs, Options{Reps: 1}); err == nil {
			t.Errorf("%s: Recommend accepted %+v", c.name, rs)
		} else if st := s.Stats(); st.Misses+st.Hits != 0 {
			t.Errorf("%s: Recommend ran %d cells before the error", c.name, st.Misses+st.Hits)
		}
	}
}
