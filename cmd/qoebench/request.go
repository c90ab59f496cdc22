package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"reflect"
	"strconv"
	"strings"
	"time"

	"bufferqoe"
)

// request is one buffer-sizing question: the axes of a -sweep or
// -recommend run. The CLI's axis flags (bind) and the JSON body of
// POST /sweep and POST /recommend fill the same fields, and
// sweep/recommend compile them for both surfaces, so the two cannot
// drift. Every field is optional and its zero value means its
// default: the access network, the noBG workload, downstream
// congestion, the paper's buffer sweep, the voip, web and video:SD
// probes, and the facade's recommend target and threshold.
type request struct {
	Network   string `json:"network"`
	Workloads names  `json:"workloads"`
	Mix       string `json:"mix"`
	Dir       string `json:"dir"`
	Buffers   ints   `json:"buffers"`
	Probes    names  `json:"probes"`
	BufUp     int    `json:"bufup"`
	AQM       string `json:"aqm"`
	CC        string `json:"cc"`
	Jitter    millis `json:"jitter_ms"`

	// Custom link. Link selects the family ("wired" or "wifi"); a
	// wired link is custom once a rate, a delay or Reorder is set.
	Link        string  `json:"link"`
	UpRate      float64 `json:"uprate"`
	DownRate    float64 `json:"downrate"`
	ClientDelay millis  `json:"client_delay_ms"`
	ServerDelay millis  `json:"server_delay_ms"`
	Stations    int     `json:"stations"`
	WifiRetry   int     `json:"wifi_retry"`
	WifiAgg     int     `json:"wifi_agg"`
	Reorder     float64 `json:"reorder"`

	// Recommend-only.
	Target    string  `json:"target"`
	Threshold float64 `json:"threshold"`

	// Run options, body only: zero fields inherit the server's
	// -seed/-duration/-warmup/-reps/-clip.
	Seed     uint64  `json:"seed"`
	Duration seconds `json:"duration_s"`
	Warmup   seconds `json:"warmup_s"`
	Reps     int     `json:"reps"`
	ClipS    int     `json:"clip_s"`
}

// bind points the CLI's axis flags at q's fields.
func (q *request) bind(fs *flag.FlagSet) {
	fs.StringVar(&q.Network, "network", "", "sweep: paper testbed, access (default) or backbone")
	fs.Var(&q.Workloads, "workloads", "sweep: comma-separated `list` of Table 1 workload names (default noBG)")
	fs.StringVar(&q.Mix, "mix", "", "sweep: custom workload mix, e.g. \"up:long=2;down:web=16x3/1.5s\" (see -list; replaces -workloads/-dir)")
	fs.StringVar(&q.Dir, "dir", "", "sweep: congestion direction, down (default), up or bidir")
	fs.Var(&q.Buffers, "buffers", "sweep: comma-separated `list` of buffer sizes in packets (default: the paper's sweep for the network)")
	fs.Var(&q.Probes, "probes", "sweep: comma-separated `list` of probes: voip, web, video[:SD|:HD] (default voip,web,video:SD)")
	fs.IntVar(&q.BufUp, "bufup", 0, "sweep: uplink buffer override in packets (access shape; 0 = same as the swept buffer)")
	fs.StringVar(&q.AQM, "aqm", "", "sweep: queue discipline (droptail, codel, fq-codel, red, ared, pie)")
	fs.StringVar(&q.CC, "cc", "", "sweep: congestion control (cubic, reno, bic, bbr)")
	fs.Var(&q.Jitter, "jitter", "sweep: mean last-hop jitter, a `duration` (access shape)")

	fs.StringVar(&q.Link, "link", "", "sweep: bottleneck link family: wired (default; customize with -uprate/-downrate/...) or wifi (802.11 MAC last hop)")
	fs.Float64Var(&q.UpRate, "uprate", 0, "sweep: custom uplink rate in bits/s (enables a custom link)")
	fs.Float64Var(&q.DownRate, "downrate", 0, "sweep: custom downlink rate in bits/s")
	fs.Var(&q.ClientDelay, "clientdelay", "sweep: custom client-side one-way delay, a `duration`")
	fs.Var(&q.ServerDelay, "serverdelay", "sweep: custom server-side one-way delay, a `duration`")
	fs.IntVar(&q.Stations, "stations", 0, "sweep: wifi contending stations (default 4; requires -link wifi)")
	fs.IntVar(&q.WifiRetry, "wifiretry", 0, "sweep: wifi per-aggregate retry limit (default 7; requires -link wifi)")
	fs.IntVar(&q.WifiAgg, "wifiagg", 0, "sweep: wifi A-MPDU aggregation cap in frames (default 16, 1 disables; requires -link wifi)")
	fs.Float64Var(&q.Reorder, "reorder", 0, "sweep: packet reordering probability in [0,1) behind the bottleneck (access shape)")

	fs.StringVar(&q.Target, "target", "", "recommend: min-mos (default; smallest buffer with every probe >= -threshold) or max-mos (best aggregate MOS)")
	fs.Float64Var(&q.Threshold, "threshold", 0, "recommend: per-probe MOS floor for min-mos (default 3.5)")
}

// names is a comma-separated flag and a JSON array of strings.
type names []string

func (l names) String() string { return strings.Join(l, ",") }

func (l *names) Set(s string) error {
	*l = splitList(s)
	return nil
}

// ints is a comma-separated flag and a JSON array of integers.
type ints []int

func (l ints) String() string { return joinInts(l, ",") }

func (l *ints) Set(s string) error {
	*l = nil
	for _, part := range splitList(s) {
		n, err := strconv.Atoi(part)
		if err != nil {
			return fmt.Errorf("bad entry %q", part)
		}
		*l = append(*l, n)
	}
	return nil
}

// millis is a duration that a flag spells as a Go duration
// (-jitter 1.5ms) and a body as float milliseconds ("jitter_ms": 1.5).
type millis time.Duration

func (m millis) String() string { return time.Duration(m).String() }

func (m *millis) Set(s string) error {
	d, err := time.ParseDuration(s)
	*m = millis(d)
	return err
}

func (m *millis) UnmarshalJSON(b []byte) error {
	return unmarshalDuration(b, time.Millisecond, (*time.Duration)(m))
}

// seconds is a run-option duration that a body spells as float
// seconds ("duration_s": 30).
type seconds time.Duration

func (s *seconds) UnmarshalJSON(b []byte) error {
	return unmarshalDuration(b, time.Second, (*time.Duration)(s))
}

// unmarshalDuration decodes a JSON number of units into d. A number
// that does not fit a time.Duration is refused the way encoding/json
// refuses an out-of-range integer, so the decoder's error names the
// field; converted unchecked, it would wrap to a negative duration.
func unmarshalDuration(b []byte, unit time.Duration, d *time.Duration) error {
	var n float64
	if err := json.Unmarshal(b, &n); err != nil {
		return err
	}
	ns := n * float64(unit)
	if !(math.Abs(ns) < 1<<63) {
		return &json.UnmarshalTypeError{Value: "number " + string(b), Type: reflect.TypeOf(*d)}
	}
	*d = time.Duration(ns)
	return nil
}

// sweep compiles q into the grid that -sweep and POST /sweep run.
func (q *request) sweep() (bufferqoe.Sweep, error) {
	scenarios, net, err := q.scenarios()
	if err != nil {
		return bufferqoe.Sweep{}, err
	}
	probes, err := q.probes()
	if err != nil {
		return bufferqoe.Sweep{}, err
	}
	bufs := []int(q.Buffers)
	if len(bufs) == 0 {
		bufs = bufferqoe.BufferSizes(net)
	}
	return bufferqoe.Sweep{Scenarios: scenarios, Buffers: bufs, Probes: probes}, nil
}

// recommend compiles q into the search that -recommend and POST
// /recommend run over the one scenario of q's sweep. The buffer
// axis, target and threshold keep their zero values when unset:
// Recommend brackets the paper's sweep with the link's BDP, aims at
// MinBufferMeetingMOS and sets the floor at MOS 3.5.
func (q *request) recommend() (bufferqoe.RecommendSpec, error) {
	sw, err := q.sweep()
	if err != nil {
		return bufferqoe.RecommendSpec{}, err
	}
	if len(sw.Scenarios) != 1 {
		return bufferqoe.RecommendSpec{}, fmt.Errorf("recommend takes exactly one workload, got %q", q.Workloads)
	}
	var target bufferqoe.Target
	switch q.Target {
	case "": // Recommend's default, MinBufferMeetingMOS
	case "min-mos":
		target = bufferqoe.MinBufferMeetingMOS
	case "max-mos":
		target = bufferqoe.MaxAggregateMOS
	default:
		return bufferqoe.RecommendSpec{}, fmt.Errorf("unknown target %q (want min-mos or max-mos)", q.Target)
	}
	return bufferqoe.RecommendSpec{
		Scenario: sw.Scenarios[0], Probes: sw.Probes, Buffers: q.Buffers,
		Target: target, Threshold: q.Threshold,
	}, nil
}

// scenarios resolves the network, link and workload axes: one
// scenario per preset workload, or the one a custom mix describes.
// It also returns the network, whose paper sweep is the default
// buffer axis.
func (q *request) scenarios() ([]bufferqoe.Scenario, bufferqoe.Network, error) {
	var net bufferqoe.Network
	switch q.Network {
	case "access", "":
		net = bufferqoe.Access
	case "backbone":
		net = bufferqoe.Backbone
	default:
		return nil, "", fmt.Errorf("unknown network %q (want access or backbone)", q.Network)
	}
	link, err := q.link()
	if err != nil {
		return nil, "", err
	}
	sc := bufferqoe.Scenario{
		Network: net, Link: link, BufferUp: q.BufUp,
		AQM: bufferqoe.AQM(q.AQM), CC: bufferqoe.CC(q.CC), Jitter: time.Duration(q.Jitter),
	}

	if q.Mix != "" {
		// A custom mix replaces the preset/direction axes: the mix's
		// own Up/Down components say where the congestion goes.
		if len(q.Workloads) > 1 || len(q.Workloads) == 1 && q.Workloads[0] != "noBG" {
			return nil, "", fmt.Errorf("a custom mix and workload presets are mutually exclusive")
		}
		if q.Dir != "" && q.Dir != "down" {
			return nil, "", fmt.Errorf("direction %s: a mix names its own directions (up:/down: sections)", q.Dir)
		}
		if sc.Mix, err = bufferqoe.ParseMix(q.Mix); err != nil {
			return nil, "", err
		}
		return []bufferqoe.Scenario{sc}, net, nil
	}

	sc.Direction = bufferqoe.Down
	if q.Dir != "" {
		sc.Direction = bufferqoe.Direction(q.Dir)
	}
	if net == bufferqoe.Backbone && link == nil {
		// The backbone has no congestion-direction axis; reject a
		// non-default direction instead of silently measuring downstream.
		if sc.Direction != bufferqoe.Down {
			return nil, "", fmt.Errorf("direction %s: the backbone is congested downstream only", q.Dir)
		}
		sc.Direction = ""
	}
	workloads := q.Workloads
	if len(workloads) == 0 {
		workloads = names{"noBG"}
	}
	scenarios := make([]bufferqoe.Scenario, len(workloads))
	for i, wl := range workloads {
		scenarios[i] = sc
		scenarios[i].Workload = wl
	}
	return scenarios, net, nil
}

// link resolves the link axis into a custom Link, or nil for the
// network's stock bottleneck. Link "wifi" starts from the WifiLink
// preset and overlays any explicit rate, delay or wifi knob; the wired
// default becomes a custom link only when a rate, delay or reorder
// probability asks for one.
func (q *request) link() (*bufferqoe.Link, error) {
	switch q.Link {
	case "", "wired":
		if q.Stations != 0 || q.WifiRetry != 0 || q.WifiAgg != 0 {
			return nil, fmt.Errorf("-stations/-wifiretry/-wifiagg configure the wifi MAC; add -link wifi")
		}
		if q.UpRate == 0 && q.DownRate == 0 && q.ClientDelay == 0 && q.ServerDelay == 0 && q.Reorder == 0 {
			return nil, nil
		}
		return &bufferqoe.Link{
			UpRate: q.UpRate, DownRate: q.DownRate,
			ClientDelay: time.Duration(q.ClientDelay), ServerDelay: time.Duration(q.ServerDelay),
			Reorder: q.Reorder,
		}, nil
	case "wifi":
		st := q.Stations
		if st == 0 {
			st = 4
		}
		l := bufferqoe.WifiLink(st)
		if q.UpRate != 0 {
			l.UpRate = q.UpRate
		}
		if q.DownRate != 0 {
			l.DownRate = q.DownRate
		}
		if q.ClientDelay != 0 {
			l.ClientDelay = time.Duration(q.ClientDelay)
		}
		if q.ServerDelay != 0 {
			l.ServerDelay = time.Duration(q.ServerDelay)
		}
		l.Wifi.RetryLimit = q.WifiRetry
		l.Wifi.MaxAggFrames = q.WifiAgg
		l.Reorder = q.Reorder
		return &l, nil
	default:
		return nil, fmt.Errorf("unknown -link %q (want wired or wifi)", q.Link)
	}
}

// probes resolves the probe axis; none given means voip, web and
// video:SD.
func (q *request) probes() ([]bufferqoe.Probe, error) {
	given := q.Probes
	if len(given) == 0 {
		given = names{"voip", "web", "video:SD"}
	}
	out := make([]bufferqoe.Probe, len(given))
	for i, name := range given {
		media, profile, _ := strings.Cut(name, ":")
		out[i] = bufferqoe.Probe{Media: bufferqoe.Media(media), Profile: profile}
		switch out[i].Media {
		case bufferqoe.VoIP, bufferqoe.Web:
			if profile != "" {
				return nil, fmt.Errorf("probe %q: only video takes a profile", name)
			}
		case bufferqoe.Video:
		default:
			return nil, fmt.Errorf("unknown probe %q (want voip, web, video[:SD|:HD])", name)
		}
	}
	return out, nil
}

// options overlays the body's run options on the server's defaults.
// Requests that leave them all zero share cache and store entries
// with every other default-option request: the warm path the service
// exists for.
func (q *request) options(base bufferqoe.Options) bufferqoe.Options {
	o := base
	o.OnProgress = nil
	if q.Seed != 0 {
		o.Seed = q.Seed
	}
	if q.Duration > 0 {
		o.Duration = time.Duration(q.Duration)
	}
	if q.Warmup > 0 {
		o.Warmup = time.Duration(q.Warmup)
	}
	if q.Reps > 0 {
		o.Reps = q.Reps
	}
	if q.ClipS > 0 {
		o.ClipSeconds = q.ClipS
	}
	return o
}
