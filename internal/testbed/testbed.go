// Package testbed assembles the paper's two laboratory testbeds
// (Figure 3) in simulation: an asymmetric DSL access network
// (1 Mbit/s up, 16 Mbit/s down, NetFPGA-style drop-tail bottleneck
// buffers at the home router and DSLAM) and an OC3 backbone
// (155 Mbit/s, 30 ms one-way delay box). Both are the same
// single-bottleneck dumbbell — hosts behind two switches, two routers,
// one buffered bottleneck pair — so one Testbed type is built, reset
// in place and started by one implementation; a small shape descriptor
// carries what differs. The package also wires the buffer
// configurations (Table 2) and the Harpoon workload scenarios
// (Table 1).
package testbed

import (
	"fmt"
	"time"

	"bufferqoe/internal/harpoon"
	"bufferqoe/internal/mac"
	"bufferqoe/internal/netem"
	"bufferqoe/internal/sim"
	"bufferqoe/internal/tcp"
)

// Link-layer constants shared by both testbeds.
const (
	gigabit   = 1e9
	hostDelay = 50 * time.Microsecond // host <-> switch
	lanQueue  = 2048                  // switch/host queues: never the bottleneck
)

// Access network constants (Section 5.1).
const (
	AccessUpRate      = 1e6
	AccessDownRate    = 16e6
	AccessClientDelay = 5 * time.Millisecond  // client net <-> home router
	AccessServerDelay = 20 * time.Millisecond // DSLAM <-> server net
)

// Backbone constants (Section 5.1).
const (
	BackboneRate  = 155e6
	BackboneDelay = 30 * time.Millisecond // NetPath delay box, one way
)

// shape is everything that distinguishes one dumbbell from another;
// a new topology of the same family is one more literal.
type shape struct {
	bgHosts                    int    // background client/server host pairs
	clientRouter, serverRouter string // router node names
	upLink, downLink           string // bottleneck link names
	// link holds the bottleneck rates and the one-way delays of the two
	// router<->switch hops; delay is the bottleneck's own propagation.
	link  LinkParams
	delay time.Duration
	// fixedLink shapes ignore Config.Link and Config.Jitter.
	fixedLink bool
	cc        func() tcp.CongestionControl // the paper's background CC
	// duplex shapes observe both directions (queue and link monitors)
	// and can carry workload upstream; otherwise only the down
	// direction is instrumented and congested.
	duplex         bool
	upMon, downMon string // queue-monitor names
	upGen, downGen string // harpoon RNG labels
	slot           int    // index into Scratch.carcass
}

// Figure 3a: two background host pairs around the home router and
// DSLAM; the paper runs BIC/CUBIC on the access hosts.
var accessShape = shape{
	bgHosts:      2,
	clientRouter: "home-router",
	serverRouter: "dslam",
	upLink:       "uplink",
	downLink:     "downlink",
	link: LinkParams{
		UpRate: AccessUpRate, DownRate: AccessDownRate,
		ClientDelay: AccessClientDelay, ServerDelay: AccessServerDelay,
	},
	delay:   100 * time.Microsecond,
	cc:      tcp.NewCubic,
	duplex:  true,
	upMon:   "uplink",
	downMon: "downlink",
	upGen:   "harpoon-up",
	downGen: "harpoon-down",
	slot:    0,
}

// Figure 3b: four background host pairs, Cisco-class switches, two
// routers joined by an OC3 with the NetPath delay box folded into
// propagation; TCP-Reno on the hosts, congestion server->client only.
var backboneShape = shape{
	bgHosts:      4,
	clientRouter: "router-client",
	serverRouter: "router-server",
	upLink:       "oc3-cs",
	downLink:     "oc3-sc",
	link: LinkParams{
		UpRate: BackboneRate, DownRate: BackboneRate,
		ClientDelay: 100 * time.Microsecond, ServerDelay: 100 * time.Microsecond,
	},
	delay:     BackboneDelay,
	fixedLink: true,
	cc:        tcp.NewReno,
	downMon:   "oc3-down",
	downGen:   "harpoon-bb",
	slot:      1,
}

// QueueFactory builds the bottleneck queue for a buffer size in
// packets; nil means drop-tail (the paper's configuration). The AQM
// ablations substitute CoDel/RED here.
type QueueFactory func(capPackets int) netem.Queue

// WifiParams selects an 802.11 MAC (internal/mac) for the access
// bottleneck instead of the wired DSL pair. Stations == 0 (the zero
// value) keeps the paper's wired bottleneck; Stations >= 1 replaces
// both bottleneck links with mac.WifiLinks contending on one shared
// medium, with the buffer under test still sitting in front of each.
type WifiParams struct {
	// Stations is the number of stations contending for the medium
	// (1 = no collisions); 0 disables wifi entirely.
	Stations int
	// RetryLimit bounds per-aggregate retransmission attempts
	// (default mac.DefaultRetryLimit).
	RetryLimit int
	// MaxAggFrames caps A-MPDU aggregation (default
	// mac.DefaultMaxAggFrames; 1 disables aggregation).
	MaxAggFrames int
}

// LinkParams overrides the access testbed's bottleneck rates and
// one-way propagation delays, turning the fixed DSL topology of
// Figure 3a into a template for arbitrary access networks (fiber,
// LTE, cable, and — via Wifi — 802.11). Zero fields keep the paper's
// values.
type LinkParams struct {
	// UpRate / DownRate are the bottleneck rates in bits/s
	// (paper: 1 Mbit/s up, 16 Mbit/s down). With Wifi enabled they are
	// the PHY air rates of the two directions.
	UpRate, DownRate float64
	// ClientDelay is the one-way delay between the client network and
	// the home router (paper: 5 ms); ServerDelay between the DSLAM and
	// the server network (paper: 20 ms).
	ClientDelay, ServerDelay time.Duration
	// Wifi, when Stations > 0, swaps the wired bottleneck for the
	// 802.11 MAC model.
	Wifi WifiParams
	// Reorder, when > 0, interposes a reordering stage after each
	// bottleneck link that delays each packet independently with this
	// probability, letting successors overtake it (netem.ReorderBox).
	Reorder float64
}

// fill replaces zero rates and delays with def's (and, when wifi is
// enabled, zero retry/aggregation knobs with the 802.11 defaults).
func (lp LinkParams) fill(def LinkParams) LinkParams {
	if lp.UpRate <= 0 {
		lp.UpRate = def.UpRate
	}
	if lp.DownRate <= 0 {
		lp.DownRate = def.DownRate
	}
	if lp.ClientDelay <= 0 {
		lp.ClientDelay = def.ClientDelay
	}
	if lp.ServerDelay <= 0 {
		lp.ServerDelay = def.ServerDelay
	}
	if lp.Wifi.Stations > 0 {
		if lp.Wifi.RetryLimit <= 0 {
			lp.Wifi.RetryLimit = mac.DefaultRetryLimit
		}
		if lp.Wifi.MaxAggFrames <= 0 {
			lp.Wifi.MaxAggFrames = mac.DefaultMaxAggFrames
		}
	}
	return lp
}

// WithDefaults fills zero fields with the paper's DSL values (and,
// when wifi is enabled, the 802.11 retry/aggregation defaults).
func (lp LinkParams) WithDefaults() LinkParams { return lp.fill(accessShape.link) }

// IsDefault reports whether the (default-filled) parameters equal the
// paper's DSL access link.
func (lp LinkParams) IsDefault() bool { return lp.WithDefaults() == accessShape.link }

// graph names the Config knobs that change the receiver graph rather
// than a parameter on it — jitter (a JitterBox on the client LAN hop),
// wifi (mac.WifiLinks instead of the wired bottleneck pair), and
// reordering (ReorderBoxes after the bottleneck). A carcass is
// reusable only for cells of the same graph; everything else is
// reconfigurable in place.
type graph struct{ jitter, wifi, reorder bool }

// Scratch holds what a testbed build would otherwise allocate fresh:
// the bottleneck queue and link monitors, and — the big one — the
// assembled testbeds themselves. A worker reuses one Scratch across
// the cells it computes. The first NewAccess/NewBackbone call with a
// given Scratch builds the full node/link/stack graph and caches it
// here; later calls reset that carcass in place (engine, packet pool,
// nodes, links, TCP stacks) and reconfigure only what varies per cell
// (buffer queues, link rates/delays, seeds, congestion control), so
// the structural build cost is paid once per worker instead of once
// per cell. A cold build and a reused carcass go through the same
// configuration step, so results are bit-identical either way — the
// golden cross-section test exercises precisely this path.
type Scratch struct {
	UpQueueMon, DownQueueMon netem.QueueMonitor
	UpLinkMon, DownLinkMon   netem.LinkMonitor

	// carcass caches one assembled testbed per shape, replaced when a
	// cell needs a different graph.
	carcass [2]*Testbed
}

// Reset clears all monitors for the next run. Cached testbed
// carcasses survive — they are reset on their next reuse.
func (s *Scratch) Reset() {
	s.UpQueueMon.Reset("")
	s.DownQueueMon.Reset("")
	s.UpLinkMon.Reset()
	s.DownLinkMon.Reset()
}

// Config configures a testbed build.
type Config struct {
	// BufferUp / BufferDown are bottleneck buffer sizes in packets;
	// BufferUp 0 means "same as BufferDown".
	BufferUp, BufferDown int
	// Link overrides the access bottleneck's rates and delays; the
	// zero value is the paper's DSL configuration. Ignored by the
	// backbone testbed.
	Link LinkParams
	// Seed drives all randomness.
	Seed uint64
	// CC selects background-traffic congestion control; nil uses the
	// paper's choice (CUBIC on access, Reno on backbone).
	CC func() tcp.CongestionControl
	// UpQueue / DownQueue override the bottleneck queue discipline.
	UpQueue, DownQueue QueueFactory
	// TCP overrides stack parameters (zero fields take defaults).
	TCP tcp.Config
	// Jitter, if non-zero, adds WiFi-like exponential per-packet extra
	// delay (with this mean) on the client LAN hop of the access
	// testbed, both directions. The paper explicitly excludes wireless
	// delay variability (§5.1); the ext-jitter experiment re-adds it.
	Jitter time.Duration
	// Scratch, if non-nil, supplies reusable monitors (reset before
	// use) and the cached carcass instead of allocating fresh ones —
	// the cell engine passes a per-worker scratch here.
	Scratch *Scratch
}

func (c Config) queue(f QueueFactory, capPkts int, mon *netem.QueueMonitor) netem.Queue {
	if f == nil {
		q := netem.NewDropTail(capPkts)
		q.Monitor = mon
		return q
	}
	return f(capPkts)
}

// Testbed is an assembled dumbbell: the Figure 3a access network or
// the Figure 3b backbone, depending on the shape it was built from.
type Testbed struct {
	Eng *sim.Engine
	Net *netem.Network

	// MediaClient / MediaServer host the application under study
	// (VoIP, video, web), kept separate from background-traffic hosts
	// as in the paper.
	MediaClient, MediaServer *netem.Node
	MediaClientTCP           *tcp.Stack
	MediaServerTCP           *tcp.Stack

	// Background traffic endpoints.
	BGClients, BGServers []*tcp.Stack

	// Bottleneck instrumentation. Exactly one pair of links is non-nil:
	// the wired links, or the wifi links when cfg.Link.Wifi selects the
	// 802.11 MAC. Read link monitors through UpLinkMonitor/
	// DownLinkMonitor, which hide the distinction. On a shape that
	// observes the down direction only (the backbone), UpMon and the
	// uplink's monitor are nil.
	UpLink, DownLink *netem.Link
	UpWifi, DownWifi *mac.WifiLink
	UpMon, DownMon   *netem.QueueMonitor

	// Workload generators (nil until StartWorkload).
	UpGen, DownGen *harpoon.Generator

	sh    *shape
	graph graph
	seed  uint64

	// Carcass fields for in-place reuse: the structural pieces a reset
	// reconfigures rather than rebuilds.
	clientHop, serverHop [2]*netem.Link // router<->switch hops (delays vary)
	lanLinks             []*netem.Link
	jitterUp, jitterDn   *netem.JitterBox
	reorderUp, reorderDn *netem.ReorderBox
	medium               *mac.Medium
	allStacks            []*tcp.Stack
}

// bottleneck is what the wired and wifi bottleneck links have in
// common for instrumentation.
type bottleneck interface {
	netem.Egress
	AttachMonitor(*netem.LinkMonitor) *netem.LinkMonitor
}

func (t *Testbed) bottlenecks() (up, down bottleneck) {
	if t.UpWifi != nil {
		return t.UpWifi, t.DownWifi
	}
	return t.UpLink, t.DownLink
}

// UpLinkMonitor returns the bottleneck uplink's monitor regardless of
// whether the bottleneck is wired or wifi.
func (t *Testbed) UpLinkMonitor() *netem.LinkMonitor {
	if t.UpWifi != nil {
		return t.UpWifi.Monitor
	}
	return t.UpLink.Monitor
}

// DownLinkMonitor returns the bottleneck downlink's monitor.
func (t *Testbed) DownLinkMonitor() *netem.LinkMonitor {
	if t.DownWifi != nil {
		return t.DownWifi.Monitor
	}
	return t.DownLink.Monitor
}

// NewAccess builds the Figure 3a access testbed with the given buffer
// configuration — or, when the Scratch already caches a compatible
// carcass, resets that testbed in place, which is behavior-identical
// and roughly an order of magnitude cheaper.
func NewAccess(cfg Config) *Testbed { return newTestbed(&accessShape, cfg) }

// NewBackbone builds (or, like NewAccess, resets in place) the Figure
// 3b backbone testbed.
func NewBackbone(cfg Config) *Testbed { return newTestbed(&backboneShape, cfg) }

func newTestbed(sh *shape, cfg Config) *Testbed {
	if sh.fixedLink {
		cfg.Link, cfg.Jitter = LinkParams{}, 0
	}
	s := cfg.Scratch
	if s == nil {
		s = new(Scratch) // one-off build: private monitors, nothing to reuse
	}
	g := graph{jitter: cfg.Jitter > 0, wifi: cfg.Link.Wifi.Stations > 0, reorder: cfg.Link.Reorder > 0}
	t := s.carcass[sh.slot]
	if t != nil && t.graph == g {
		t.reuse()
	} else {
		t = build(sh, g)
		s.carcass[sh.slot] = t
	}
	t.configure(cfg, s)
	return t
}

// build assembles the structural graph of a shape — nodes, links,
// stacks, routes — with every per-cell parameter left for configure.
func build(sh *shape, g graph) *Testbed {
	eng := sim.New()
	nw := netem.NewNetwork(eng)
	t := &Testbed{Eng: eng, Net: nw, sh: sh, graph: g}

	// Topology: clients - client switch - client router =bottleneck=
	// server router - server switch - servers.
	cswitch := nw.NewNode("client-switch")
	crouter := nw.NewNode(sh.clientRouter)
	srouter := nw.NewNode(sh.serverRouter)
	sswitch := nw.NewNode("server-switch")

	// Bottleneck pair: the uplink buffer sits in the client-side
	// router, the downlink buffer in the server-side one (Section 5.3:
	// the bottleneck interface is "the only location where packet loss
	// occurs"). Monitors go on the bottleneck links only (the
	// experiments read nothing else); LAN links stay on the unmonitored
	// fast path. An optional reordering stage sits right behind each
	// bottleneck, and a wifi graph swaps the wired pair for 802.11 MAC
	// links sharing one medium.
	var upDst netem.Receiver = srouter
	var downDst netem.Receiver = crouter
	if g.reorder {
		t.reorderUp = netem.NewReorderBox(eng, nil, 0, srouter)
		t.reorderDn = netem.NewReorderBox(eng, nil, 0, crouter)
		upDst, downDst = t.reorderUp, t.reorderDn
	}
	if g.wifi {
		t.medium = mac.NewMedium()
		t.UpWifi = mac.NewWifiLink(eng, sh.upLink, mac.Params{}, nil, nil, t.medium, upDst)
		t.DownWifi = mac.NewWifiLink(eng, sh.downLink, mac.Params{}, nil, nil, t.medium, downDst)
	} else {
		t.UpLink = netem.NewLink(eng, sh.upLink, 0, sh.delay, nil, upDst)
		t.DownLink = netem.NewLink(eng, sh.downLink, 0, sh.delay, nil, downDst)
	}
	up, down := t.bottlenecks()
	crouter.SetDefaultRoute(up)
	srouter.SetDefaultRoute(down)

	// Router<->switch hops; an optional jitter box models a WiFi-like
	// last hop on the client side.
	var toCrouter netem.Receiver = crouter
	var toCswitch netem.Receiver = cswitch
	if g.jitter {
		t.jitterUp = netem.NewJitterBox(eng, nil, 0, 0, crouter)
		t.jitterDn = netem.NewJitterBox(eng, nil, 0, 0, cswitch)
		toCrouter, toCswitch = t.jitterUp, t.jitterDn
	}
	hop := func(from, to *netem.Node, dst netem.Receiver) *netem.Link {
		l := netem.NewLink(eng, from.Name+"->"+to.Name, gigabit, 0, netem.NewDropTail(lanQueue), dst)
		t.lanLinks = append(t.lanLinks, l)
		return l
	}
	t.clientHop = [2]*netem.Link{hop(cswitch, crouter, toCrouter), hop(crouter, cswitch, toCswitch)}
	t.serverHop = [2]*netem.Link{hop(sswitch, srouter, srouter), hop(srouter, sswitch, sswitch)}
	cswitch.SetDefaultRoute(t.clientHop[0])
	sswitch.SetDefaultRoute(t.serverHop[0])

	addHost := func(name string, sw, router *netem.Node, routerToSw *netem.Link) (*netem.Node, *tcp.Stack) {
		n := nw.NewNode(name)
		toSwitch, back := nw.Connect(n, sw, gigabit, hostDelay, lanQueue)
		n.SetDefaultRoute(toSwitch)
		// Teach the core how to reach this host.
		router.SetRoute(n.ID, routerToSw)
		t.lanLinks = append(t.lanLinks, toSwitch, back)
		st := tcp.NewStack(n, tcp.Config{})
		t.allStacks = append(t.allStacks, st)
		return n, st
	}
	t.MediaClient, t.MediaClientTCP = addHost("media-client", cswitch, crouter, t.clientHop[1])
	t.MediaServer, t.MediaServerTCP = addHost("media-server", sswitch, srouter, t.serverHop[1])
	for i := 0; i < sh.bgHosts; i++ {
		_, c := addHost(fmt.Sprintf("bg-client-%d", i), cswitch, crouter, t.clientHop[1])
		_, s := addHost(fmt.Sprintf("bg-server-%d", i), sswitch, srouter, t.serverHop[1])
		// Background flows are fire-and-forget (harpoon never retains
		// a conn past OnClose), so their stacks recycle Conn memory.
		c.SetConnReuse(true)
		s.SetConnReuse(true)
		t.BGClients = append(t.BGClients, c)
		t.BGServers = append(t.BGServers, s)
	}
	return t
}

// reuse rewinds a cached carcass to its never-used state: the engine,
// packet pool, nodes and wired links (wifi links, boxes and stacks
// rewind as configure hands them their next parameters).
func (t *Testbed) reuse() {
	t.Eng.Reset()
	t.Net.Reset()
	for _, n := range t.Net.Nodes() {
		n.Reset()
	}
	if t.UpLink != nil {
		t.UpLink.Reset()
		t.DownLink.Reset()
	}
	for _, l := range t.lanLinks {
		l.Reset()
	}
}

// configure applies everything that varies per cell — bottleneck
// queues, rates and monitors, hop delays, seeds, congestion control —
// to a freshly built or freshly rewound testbed. Being the only place
// that does so is what makes a reused carcass indistinguishable from a
// cold build.
func (t *Testbed) configure(cfg Config, s *Scratch) {
	sh := t.sh
	lp := cfg.Link.fill(sh.link)
	t.seed = cfg.Seed
	t.UpGen, t.DownGen = nil, nil

	s.DownQueueMon.Reset(sh.downMon)
	s.DownLinkMon.Reset()
	t.UpMon, t.DownMon = nil, &s.DownQueueMon
	if sh.duplex {
		s.UpQueueMon.Reset(sh.upMon)
		s.UpLinkMon.Reset()
		t.UpMon = &s.UpQueueMon
	}
	upQ := cfg.queue(cfg.UpQueue, nonzero(cfg.BufferUp, cfg.BufferDown), t.UpMon)
	downQ := cfg.queue(cfg.DownQueue, cfg.BufferDown, t.DownMon)
	if t.UpWifi != nil {
		// The wired bottleneck's propagation delay carries over so wifi
		// and wired cells differ only in the MAC itself.
		params := func(rate float64) mac.Params {
			return mac.Params{
				PhyRate: rate, Delay: sh.delay, Stations: lp.Wifi.Stations,
				RetryLimit: lp.Wifi.RetryLimit, MaxAggFrames: lp.Wifi.MaxAggFrames,
			}
		}
		t.medium.Reset()
		t.UpWifi.Reset(params(lp.UpRate), sim.NewRNG(cfg.Seed, "mac-up"), upQ)
		t.DownWifi.Reset(params(lp.DownRate), sim.NewRNG(cfg.Seed, "mac-down"), downQ)
	} else {
		t.UpLink.Queue, t.UpLink.Rate = upQ, lp.UpRate
		t.DownLink.Queue, t.DownLink.Rate = downQ, lp.DownRate
	}
	up, down := t.bottlenecks()
	down.AttachMonitor(&s.DownLinkMon)
	if sh.duplex {
		up.AttachMonitor(&s.UpLinkMon)
	}
	if t.reorderUp != nil {
		t.reorderUp.Reset(sim.NewRNG(cfg.Seed, "reorder-up"), lp.Reorder)
		t.reorderDn.Reset(sim.NewRNG(cfg.Seed, "reorder-down"), lp.Reorder)
	}

	t.clientHop[0].Delay, t.clientHop[1].Delay = lp.ClientDelay, lp.ClientDelay
	t.serverHop[0].Delay, t.serverHop[1].Delay = lp.ServerDelay, lp.ServerDelay
	if t.jitterUp != nil {
		t.jitterUp.Reset(sim.NewRNG(cfg.Seed, "wifi-up"), 0, cfg.Jitter)
		t.jitterDn.Reset(sim.NewRNG(cfg.Seed, "wifi-down"), 0, cfg.Jitter)
	}

	tcpCfg := cfg.TCP
	tcpCfg.NewCC = cfg.CC
	if tcpCfg.NewCC == nil {
		tcpCfg.NewCC = sh.cc
	}
	for _, st := range t.allStacks {
		st.Reset(tcpCfg)
	}
}

func nonzero(a, b int) int {
	if a != 0 {
		return a
	}
	return b
}

// Direction selects which congestion the access scenario applies
// (the paper's "Only downstream", "Up and downstream", "Only
// upstream" variants).
type Direction int

// Direction values.
const (
	DirDown Direction = iota
	DirUp
	DirBidir
)

func (d Direction) String() string {
	switch d {
	case DirDown:
		return "down"
	case DirUp:
		return "up"
	default:
		return "bidir"
	}
}

// Spec pairs the up and down session populations of one scenario.
// Each direction holds zero or more harpoon populations, started in
// order on one shared generator — the compiled form of a Workload
// (preset or custom mix).
type Spec struct {
	Name     string
	Up, Down []harpoon.Spec // empty = no traffic in that direction
}

// HasTraffic reports whether the spec starts any background traffic.
func (s Spec) HasTraffic() bool { return len(s.Up)+len(s.Down) > 0 }

// MustSpec unwraps a preset lookup whose name is a compile-time
// literal — the test/benchmark companion of the non-panicking
// Lookup* variants. Validated paths must use the Lookup* errors.
func MustSpec(s Spec, err error) Spec {
	if err != nil {
		panic(err)
	}
	return s
}

// AccessScenarioNames lists the access workloads of Table 1.
var AccessScenarioNames = []string{"noBG", "long-few", "long-many", "short-few", "short-many"}

// LookupAccessScenario returns the Table 1 session populations for a
// named access workload restricted to a direction, or an error for an
// unknown name or out-of-range direction. Parallelism and think times
// are the calibration documented in the package comment of harpoon.
func LookupAccessScenario(name string, dir Direction) (Spec, error) {
	w, err := AccessPreset(name, dir)
	if err != nil {
		return Spec{}, err
	}
	return w.TableSpec(name), nil
}

// AccessPreset is LookupAccessScenario without the compile: the named
// access workload masked by dir, in table form. Checking a name with it
// costs a map lookup.
func AccessPreset(name string, dir Direction) (Workload, error) {
	switch dir {
	case DirDown, DirUp, DirBidir:
	default:
		return Workload{}, fmt.Errorf("unknown direction %d (want DirDown, DirUp, DirBidir)", dir)
	}
	w, err := AccessWorkload(name)
	if err != nil {
		return Workload{}, err
	}
	return w.Mask(dir), nil
}

// BackboneScenarioNames lists the backbone workloads of Table 1.
var BackboneScenarioNames = []string{"noBG", "short-low", "short-medium", "short-high", "short-overload", "long"}

// LookupBackboneScenario returns the Table 1 backbone session
// population (downstream only, as in the paper), or an error for an
// unknown name.
func LookupBackboneScenario(name string) (Spec, error) {
	w, err := BackboneWorkload(name)
	if err != nil {
		return Spec{}, err
	}
	return w.TableSpec(name), nil
}

// TableSpec compiles a preset workload verbatim — table form, not the
// canonical loops form — so preset populations are byte-identical to
// the paper's Table 1 rows (custom mixes compile via Spec instead; the
// two forms provably start identical loop populations, covered by the
// facade's preset-vs-mix bit-identity test).
func (w Workload) TableSpec(name string) Spec {
	out := Spec{Name: name}
	for _, c := range w.Up {
		out.Up = append(out.Up, c.spec())
	}
	for _, c := range w.Down {
		out.Down = append(out.Down, c.spec())
	}
	return out
}

// StartWorkload launches the background traffic of a scenario and
// begins sampling bottleneck utilization and flow concurrency. The
// populations of a direction start in spec order on one generator, so
// the realization is a pure function of the (canonicalized) spec. Up
// populations are ignored on a shape that cannot carry them.
func (t *Testbed) StartWorkload(s Spec) {
	if len(s.Down) > 0 {
		t.DownGen = t.generate(t.sh.downGen, s.Down, t.BGServers, t.BGClients, harpoon.SinkPort)
	}
	if t.sh.duplex {
		if len(s.Up) > 0 {
			t.UpGen = t.generate(t.sh.upGen, s.Up, t.BGClients, t.BGServers, harpoon.SinkPort+1)
		}
		t.UpLinkMonitor().StartSampling(t.Eng, time.Second)
	}
	t.DownLinkMonitor().StartSampling(t.Eng, time.Second)
}

// generate starts one direction's populations on a fresh generator
// whose transfers run from the senders to sinks registered on the
// receivers' port.
func (t *Testbed) generate(rngLabel string, pops []harpoon.Spec, senders, receivers []*tcp.Stack, port uint16) *harpoon.Generator {
	sinks := make([]netem.Addr, 0, len(receivers))
	for _, st := range receivers {
		harpoon.RegisterSink(st, port)
		sinks = append(sinks, st.Node().Addr(port))
	}
	g := harpoon.NewGenerator(t.Eng, sim.NewRNG(t.seed, rngLabel), senders, sinks)
	for _, sp := range pops {
		g.Start(sp)
	}
	g.StartConcurrencySampling(time.Second)
	return g
}
