package bufferqoe

import (
	"fmt"
	"strconv"
	"time"

	"bufferqoe/internal/experiments"
	"bufferqoe/internal/testbed"
	"bufferqoe/internal/video"
)

// Link describes a custom access bottleneck: the rates and one-way
// propagation delays of the network under study. The zero value of
// any field keeps the paper's DSL figure (1 Mbit/s up, 16 Mbit/s
// down, 5 ms client side, 20 ms server side). Custom links run on the
// access topology template — clients behind a home router, a
// bottleneck pair, servers behind the far switch — which covers
// fiber, cable, and cellular access networks alike.
type Link struct {
	// UpRate / DownRate are the bottleneck rates in bits/s. When Wifi
	// is enabled they are the PHY air rates of the two directions.
	UpRate, DownRate float64
	// ClientDelay / ServerDelay are the one-way propagation delays
	// between the client network and the bottleneck, and between the
	// bottleneck and the server network.
	ClientDelay, ServerDelay time.Duration
	// Wifi, when Stations > 0, swaps the wired bottleneck for an
	// 802.11 MAC model: CSMA/CA contention among Stations stations on
	// one shared medium, collision retries with exponential backoff,
	// and A-MPDU frame aggregation. The buffer under test still sits
	// in front of the MAC, so the sizing question is unchanged — only
	// the service process is wireless.
	Wifi Wifi
	// Reorder, when in (0,1), reorders packets after the bottleneck:
	// each packet is independently held back with this probability,
	// letting its successors overtake it.
	Reorder float64
}

// Wifi configures the 802.11 MAC of a wireless Link. The zero value
// disables it.
type Wifi struct {
	// Stations is the number of stations contending for the medium
	// (1 = a single station, no collisions); 0 keeps the wired link.
	Stations int
	// RetryLimit bounds per-aggregate retransmissions before the MAC
	// drops the frames (default 7).
	RetryLimit int
	// MaxAggFrames caps A-MPDU aggregation (default 16; 1 disables
	// aggregation).
	MaxAggFrames int
}

// DSLLink is the paper's access link (Figure 3a): 1 Mbit/s up,
// 16 Mbit/s down, 25 ms one-way base delay.
func DSLLink() Link {
	return Link{
		UpRate: testbed.AccessUpRate, DownRate: testbed.AccessDownRate,
		ClientDelay: testbed.AccessClientDelay, ServerDelay: testbed.AccessServerDelay,
	}
}

// FiberLink is a symmetric 1 Gbit/s FTTH line with short last-mile
// delay.
func FiberLink() Link {
	return Link{
		UpRate: 1e9, DownRate: 1e9,
		ClientDelay: 2 * time.Millisecond, ServerDelay: 10 * time.Millisecond,
	}
}

// LTELink is a cellular-like access link: 8 Mbit/s up, 30 Mbit/s
// down, with a longer radio-side delay. Combine it with
// Scenario.Jitter for the air interface's delay variability.
func LTELink() Link {
	return Link{
		UpRate: 8e6, DownRate: 30e6,
		ClientDelay: 15 * time.Millisecond, ServerDelay: 20 * time.Millisecond,
	}
}

// WifiLink is an 802.11n-like home WLAN last hop: a 65 Mbit/s PHY
// shared by both directions, the given number of contending stations,
// default retry limit and A-MPDU aggregation, and short last-mile
// delay. The paper's testbeds deliberately omit WiFi
// connectivity (§5.1); this preset re-asks its buffer-sizing question
// on the link type it excluded.
func WifiLink(stations int) Link {
	return Link{
		UpRate: 65e6, DownRate: 65e6,
		ClientDelay: 2 * time.Millisecond, ServerDelay: 15 * time.Millisecond,
		Wifi: Wifi{Stations: stations},
	}
}

func (l Link) internal() testbed.LinkParams {
	return testbed.LinkParams{
		UpRate: l.UpRate, DownRate: l.DownRate,
		ClientDelay: l.ClientDelay, ServerDelay: l.ServerDelay,
		Wifi: testbed.WifiParams{
			Stations:     l.Wifi.Stations,
			RetryLimit:   l.Wifi.RetryLimit,
			MaxAggFrames: l.Wifi.MaxAggFrames,
		},
		Reorder: l.Reorder,
	}
}

// AQM selects the bottleneck queue discipline of a scenario.
type AQM string

// Queue disciplines. DropTail is the paper's configuration; the rest
// are the post-bufferbloat alternatives the ablations study. On the
// access shape the discipline manages both bottleneck queues, on the
// backbone the congested downstream queue.
const (
	DropTail AQM = ""
	CoDel    AQM = "codel"
	FQCoDel  AQM = "fq-codel"
	RED      AQM = "red"
	ARED     AQM = "ared"
	PIE      AQM = "pie"
)

// CC selects the background traffic's congestion control.
type CC string

// Congestion control algorithms. DefaultCC is the paper's choice for
// the testbed: CUBIC on the access shape, Reno on the backbone. BBR
// is the paced model-based algorithm (post-paper): it estimates
// bottleneck bandwidth and propagation delay, paces at the estimated
// rate, and caps inflight near the BDP, so it needs far less buffer
// than the loss-based family the paper measured.
const (
	DefaultCC CC = ""
	Cubic     CC = "cubic"
	Reno      CC = "reno"
	BIC       CC = "bic"
	BBR       CC = "bbr"
)

// Scenario declares one network-plus-workload configuration: where
// the traffic runs (a paper testbed or a custom link), what loads it
// (a Table 1 workload and its direction), and how the bottleneck
// behaves (queue discipline, congestion control, last-hop jitter).
// The zero value with a Workload is that workload on the paper's
// idle-default access testbed; everything else is opt-in.
type Scenario struct {
	// Name labels the scenario in results; "" derives a label from
	// the fields.
	Name string
	// Network selects a paper testbed; default Access. Custom links
	// run on the access shape, so Network must be Access (or empty)
	// when Link is set — Backbone with a Link is an error.
	Network Network
	// Link, when non-nil, replaces the access bottleneck with a
	// custom one; see Link.
	Link *Link
	// Workload is the Table 1 scenario name; "" means "noBG".
	// Mutually exclusive with Mix.
	Workload string
	// Mix, when non-nil, replaces the named preset with a composable
	// workload (see Workload and the preset constructors LongMany,
	// ShortFew, ...). A mix equal to a Table 1 preset under some
	// congestion direction compiles to that preset's exact cell specs
	// — same cache entries, same CRN-paired seeds — so custom and
	// named spellings of the same traffic are one set of cells.
	// Because a mix names its own directions, Direction must stay
	// empty when Mix is set.
	Mix *Workload
	// Direction is where background congestion applies (access shape
	// only; the backbone is downstream-only). Default Down. Must be
	// empty when Mix is set.
	Direction Direction
	// BufferUp overrides the access uplink buffer in packets; 0 keeps
	// the paper's symmetric configuration (uplink = the swept buffer).
	// Access shape only.
	BufferUp int
	// AQM is the bottleneck queue discipline. Default DropTail.
	AQM AQM
	// CC is the background congestion control. Default DefaultCC.
	CC CC
	// Jitter adds an exponential per-packet delay with this mean on
	// the client's last hop (access shape only).
	Jitter time.Duration
}

// Label returns the scenario's display name: Name if set, otherwise a
// summary derived from the fields, e.g. "access/long-many/up" or
// "custom(1G/1G)/short-few/down+codel". Rates render as fmt's %g,
// durations as Duration.String (scenario_test.go keeps the
// fmt.Sprintf rendering it replaced as the reference).
func (sc Scenario) Label() string {
	if sc.Name != "" {
		return sc.Name
	}
	var buf [128]byte
	b := buf[:0]
	if l := sc.Link; l != nil {
		b = append(b, "custom("...)
		b = appendRate(b, l.UpRate)
		b = append(b, '/')
		b = appendRate(b, l.DownRate)
		// Append delays when customized, so two links differing only
		// there derive distinct labels.
		if l.ClientDelay != 0 || l.ServerDelay != 0 {
			b = append(b, '@')
			b = appendDelay(b, l.ClientDelay)
			b = append(b, '/')
			b = appendDelay(b, l.ServerDelay)
		}
		if l.Wifi.Stations > 0 {
			b = append(b, "+wifi"...)
			b = strconv.AppendInt(b, int64(l.Wifi.Stations), 10)
		}
		if l.Reorder > 0 {
			b = append(b, "+ro"...)
			b = strconv.AppendFloat(b, l.Reorder, 'g', -1, 64)
		}
		b = append(b, ')')
	} else if sc.Network == "" {
		b = append(b, Access...)
	} else {
		b = append(b, sc.Network...)
	}
	wl, dir, hasDir := sc.workloadLabel()
	b = append(b, '/')
	b = append(b, wl...)
	if hasDir {
		b = append(b, '/')
		b = append(b, dir...)
	}
	if sc.AQM != DropTail {
		b = append(b, '+')
		b = append(b, sc.AQM...)
	}
	if sc.CC != DefaultCC {
		b = append(b, '+')
		b = append(b, sc.CC...)
	}
	if sc.Jitter > 0 {
		b = append(b, "+j"...)
		b = append(b, sc.Jitter.String()...)
	}
	if sc.BufferUp > 0 {
		b = append(b, "+bufup="...)
		b = strconv.AppendInt(b, int64(sc.BufferUp), 10)
	}
	return string(b)
}

// workloadLabel derives the workload axis of the label: the preset
// name plus congestion direction, or the canonical mix rendering. A
// Mix equal to a direction-masked Table 1 preset labels exactly like
// the preset spelling, so the two produce byte-identical SweepCells.
func (sc Scenario) workloadLabel() (wl, dir string, hasDir bool) {
	if sc.Mix != nil {
		c := sc.Mix.internal().Canonical()
		if sc.Network == Backbone {
			if name, ok := testbed.MatchBackbonePreset(c); ok {
				return name, "", false
			}
		} else if name, d, ok := testbed.MatchAccessPreset(c); ok {
			return name, d.String(), name != "noBG"
		}
		return "mix(" + c.Encode() + ")", "", false
	}
	wl = sc.Workload
	if wl == "" {
		wl = "noBG"
	}
	if sc.Network != Backbone && wl != "noBG" {
		d := sc.Direction
		if d == "" {
			d = Down
		}
		return wl, string(d), true
	}
	return wl, "", false
}

// appendRate appends a link rate in the label's units: G, M or k
// bits/s, or "dflt" for the preset rate.
func appendRate(b []byte, bps float64) []byte {
	unit, scale := byte('k'), 1e3
	switch {
	case bps <= 0:
		return append(b, "dflt"...)
	case bps >= 1e9:
		unit, scale = 'G', 1e9
	case bps >= 1e6:
		unit, scale = 'M', 1e6
	}
	return append(strconv.AppendFloat(b, bps/scale, 'g', -1, 64), unit)
}

// appendDelay appends a link delay, or "dflt" for the preset delay.
func appendDelay(b []byte, d time.Duration) []byte {
	if d <= 0 {
		return append(b, "dflt"...)
	}
	return append(b, d.String()...)
}

// spec compiles the scenario and one probe at one buffer size into
// the internal probe spec, validated and normalized, so the engine
// path submits it without checking it again.
func (sc Scenario) spec(p Probe, buffer int) (experiments.ProbeSpec, error) {
	out := experiments.ProbeSpec{
		Scenario: sc.Workload,
		Buffer:   buffer,
		BufferUp: sc.BufferUp,
		AQM:      string(sc.AQM),
		CC:       string(sc.CC),
		Jitter:   sc.Jitter,
	}
	if sc.Mix != nil {
		if sc.Workload != "" {
			return out, fmt.Errorf("bufferqoe: scenario %q: set Workload or Mix, not both", sc.Label())
		}
		if sc.Direction != "" {
			return out, fmt.Errorf("bufferqoe: scenario %q: a Mix names its own directions (Up/Down components); leave Direction empty", sc.Label())
		}
		iw := sc.Mix.internal()
		out.Mix = &iw
	}
	switch sc.Network {
	case Access, "":
		out.Testbed = "access"
	case Backbone:
		out.Testbed = "backbone"
		if sc.Link != nil {
			return out, fmt.Errorf("bufferqoe: scenario %q: custom links use the access shape; drop Network: Backbone", sc.Label())
		}
		if sc.Jitter != 0 {
			return out, fmt.Errorf("bufferqoe: scenario %q: jitter exists on the access shape only", sc.Label())
		}
		if sc.Direction != "" && sc.Direction != Down {
			return out, fmt.Errorf("bufferqoe: scenario %q: the backbone is congested downstream only", sc.Label())
		}
	default:
		return out, fmt.Errorf("bufferqoe: scenario %q: unknown network %q", sc.Label(), sc.Network)
	}
	if out.Testbed == "access" {
		d, err := sc.Direction.internal()
		if err != nil {
			return out, err
		}
		out.Direction = d
		if sc.Link != nil {
			out.Link = sc.Link.internal()
		}
	}
	media, prof, err := p.internal()
	if err != nil {
		return out, err
	}
	out.Media, out.Profile = media, prof
	norm, err := out.Normalize()
	if err != nil {
		return out, fmt.Errorf("bufferqoe: scenario %q: %w", sc.Label(), err)
	}
	return norm, nil
}

// Validate checks the scenario against a probe without running
// anything; a buffer of 1 packet stands in for the sweep axis.
func (sc Scenario) Validate(p Probe) error {
	_, err := sc.spec(p, 1)
	return err
}

// compiledScenario is a scenario checked and rendered once for a whole
// call: its label, and its spec normalized at a stand-in cell, which
// holds the scenario's rendered cache-key tags. A grid's cells are
// stamped from it (spec), each checking only what a cell adds.
type compiledScenario struct {
	sc    Scenario
	label string
	base  experiments.ProbeSpec
	err   error // the scenario's own fault, if any
}

// compile checks the scenario and renders its tags; label is its
// Label.
func (sc Scenario) compile(label string) compiledScenario {
	c := compiledScenario{sc: sc, label: label}
	c.base, c.err = sc.spec(Probe{Media: VoIP}, 1)
	return c
}

// spec is Scenario.spec for one cell of the compiled scenario: the
// probe's media and profile and the buffer are checked, the rest is
// the scenario's once-normalized spec.
func (c *compiledScenario) spec(p Probe, buffer int) (experiments.ProbeSpec, error) {
	if c.err != nil {
		// A faulty scenario fails every cell; the one-cell path reports
		// whichever fault a lone cell meets first.
		return c.sc.spec(p, buffer)
	}
	media, prof, err := p.internal()
	if err != nil {
		return experiments.ProbeSpec{}, err
	}
	out, err := c.base.At(buffer, media, prof)
	if err != nil {
		return out, fmt.Errorf("bufferqoe: scenario %q: %w", c.label, err)
	}
	return out, nil
}

// Media selects what a probe measures.
type Media string

// Probe media.
const (
	VoIP  Media = "voip"
	Web   Media = "web"
	Video Media = "video"
)

// Probe declares one foreground measurement: the media under study
// and, for video, the encoding profile.
type Probe struct {
	// Media is VoIP, Web, or Video.
	Media Media
	// Profile is the video encoding ladder entry, "SD" (default) or
	// "HD"; must be empty for other media.
	Profile string
}

// Label returns the probe's display name, e.g. "voip" or "video:HD".
// The video profile is normalized ("sd" and "" both label as SD), so
// equivalent probes always share a label.
func (p Probe) Label() string {
	if p.Media == Video {
		prof := p.Profile
		if v, err := videoProfile(prof); err == nil {
			prof = v.Name
		}
		return "video:" + prof
	}
	return string(p.Media)
}

// internal checks the probe and returns its engine media name and
// video profile.
func (p Probe) internal() (string, video.Profile, error) {
	switch p.Media {
	case VoIP, Web:
		if p.Profile != "" {
			return "", video.Profile{}, fmt.Errorf("bufferqoe: probe %q does not take a profile", p.Media)
		}
		return string(p.Media), video.Profile{}, nil
	case Video:
		prof, err := videoProfile(p.Profile)
		return string(Video), prof, err
	}
	return "", video.Profile{}, fmt.Errorf("bufferqoe: unknown probe media %q (want voip, web, video)", p.Media)
}

func videoProfile(profile string) (video.Profile, error) {
	switch profile {
	case "SD", "sd", "":
		return video.SD, nil
	case "HD", "hd":
		return video.HD, nil
	default:
		return video.Profile{}, fmt.Errorf("bufferqoe: unknown profile %q (want SD or HD)", profile)
	}
}
