package experiments

import (
	"fmt"
	"strconv"
	"time"

	"bufferqoe/internal/cdn"
	"bufferqoe/internal/engine"
	"bufferqoe/internal/httpvideo"
	"bufferqoe/internal/netem"
	"bufferqoe/internal/qoe"
	"bufferqoe/internal/sim"
	"bufferqoe/internal/sizing"
	"bufferqoe/internal/stats"
	"bufferqoe/internal/tcp"
	"bufferqoe/internal/telemetry"
	"bufferqoe/internal/testbed"
	"bufferqoe/internal/video"
	"bufferqoe/internal/voip"
	"bufferqoe/internal/web"
)

// Cell value types. Cells return every metric their simulation run
// can cheaply expose, so experiments asking different questions of
// the same configuration share one cached run.

// voipScore is an access VoIP cell: median MOS per direction plus the
// uplink-path characteristics the ablations read.
type voipScore struct {
	Listen, Talk float64
	UpDelayMs    float64
	UpUtilPct    float64
}

// videoScore is a video cell: median SSIM and PSNR across reps.
type videoScore struct{ SSIM, PSNR float64 }

// httpScore is an HTTP-video cell: median MOS and mean bitrate.
type httpScore struct{ MOS, Bitrate float64 }

// playoutScore is a VoIP playout-buffer cell.
type playoutScore struct{ MOS, Z1, LossPct float64 }

// smoothingScore is a single-stream video smoothing cell.
type smoothingScore struct{ SSIM, LossPct float64 }

// bgMetrics is a background-only characterization cell (table1, fig4,
// fig5): no foreground traffic, the workload itself is the
// measurement.
type bgMetrics struct {
	Conc                   float64
	UtilUpPct, UtilDownPct float64
	SdUp, SdDown           float64
	LossUpPct, LossDownPct float64
	DelayUpMs, DelayDownMs float64
	UpBox, DownBox         stats.Boxplot
}

// queueFactory builds a bottleneck queue discipline from its packet
// capacity and the cell's derived seed (RNG-bearing disciplines like
// RED must draw from the cell's stream, not the root seed).
type queueFactory func(capPkts int, seed uint64) netem.Queue

// variant bundles the non-default testbed knobs a cell may carry
// together with the canonical tag that distinguishes them in the cell
// cache. The zero value — empty tag — is the paper's default
// configuration; builders must keep tag and knobs in sync, as the tag
// is what the cache sees. Custom link parameters travel separately,
// as link and its CellSpec.Link encoding linkTag, so the same variant
// tag can apply to any link. Link, jitter and the uplink knobs exist
// on the access shape only; ProbeSpec.normalize rejects them elsewhere.
type variant struct {
	tag       string
	bufUp     int // uplink buffer override; 0 = same as downlink
	upQueue   queueFactory
	downQueue queueFactory
	cc        func() tcp.CongestionControl
	tcpCfg    tcp.Config
	jitter    time.Duration
	link      testbed.LinkParams // zero = the paper's DSL link
	linkTag   string             // linkTag(link), rendered by whoever sets link
	// mix, when non-nil, replaces the named Table 1 preset with a
	// custom workload (already canonical and known not to equal any
	// preset — ProbeSpec.normalize folds preset-equal mixes onto the
	// preset path so both spellings share one cache cell).
	mix *testbed.Workload
}

func (v variant) config(buf int, seed uint64) testbed.Config {
	cfg := testbed.Config{
		BufferUp: v.bufUp, BufferDown: buf, Seed: seed,
		CC: v.cc, TCP: v.tcpCfg, Jitter: v.jitter, Link: v.link,
	}
	if v.upQueue != nil {
		qf := v.upQueue
		cfg.UpQueue = func(capPkts int) netem.Queue { return qf(capPkts, seed) }
	}
	if v.downQueue != nil {
		qf := v.downQueue
		cfg.DownQueue = func(capPkts int) netem.Queue { return qf(capPkts, seed) }
	}
	return cfg
}

// linkTag renders custom link parameters as the canonical
// CellSpec.Link encoding; the paper's preset link encodes as "", so
// probes of the default topology share cells with the experiment
// grids no matter how their LinkParams were spelled. The wifi and
// reorder axes append their own key=value fragments only when active,
// so wired encodings are byte-identical to what they were before those
// axes existed, and the encoding stays injective (every non-default
// knob appears exactly once, defaults filled first). Rates render as
// fmt's %g and delays as Duration.String (tags_test.go keeps the
// fmt.Sprintf it replaced as the reference).
//
//qoe:encodes testbed.LinkParams testbed.WifiParams
func linkTag(lp testbed.LinkParams) string {
	if lp.IsDefault() {
		return ""
	}
	lp = lp.WithDefaults()
	var buf [128]byte
	b := append(buf[:0], "up="...)
	b = strconv.AppendFloat(b, lp.UpRate, 'g', -1, 64)
	b = append(b, ";down="...)
	b = strconv.AppendFloat(b, lp.DownRate, 'g', -1, 64)
	b = append(b, ";cd="...)
	b = append(b, lp.ClientDelay.String()...)
	b = append(b, ";sd="...)
	b = append(b, lp.ServerDelay.String()...)
	if lp.Wifi.Stations > 0 {
		b = append(b, ";wifi="...)
		b = strconv.AppendInt(b, int64(lp.Wifi.Stations), 10)
		b = append(b, ";retry="...)
		b = strconv.AppendInt(b, int64(lp.Wifi.RetryLimit), 10)
		b = append(b, ";agg="...)
		b = strconv.AppendInt(b, int64(lp.Wifi.MaxAggFrames), 10)
	}
	if lp.Reorder > 0 {
		b = append(b, ";ro="...)
		b = strconv.AppendFloat(b, lp.Reorder, 'g', -1, 64)
	}
	return string(b)
}

// network is what the experiments layer knows about a testbed shape:
// its CellSpec name, its constructor and Table 1 workload table, and
// the paper's per-testbed choices.
type network struct {
	name  string // CellSpec.Testbed
	build func(testbed.Config) *testbed.Testbed
	// preset looks up a Table 1 workload masked by direction, in table
	// form and uncompiled, so a name check is a map lookup.
	preset func(name string, dir testbed.Direction) (testbed.Workload, error)
	// duplex networks congest either direction (both bottleneck queues
	// are under test, calls are bidirectional); the others are
	// downstream-only as in the paper.
	duplex    bool
	webModel  func() qoe.WebModel
	cc        string   // the paper's background congestion control
	scenarios []string // Table 1 workload names
	buffers   []int    // Table 2 buffer sizes
}

var (
	accessNet = &network{
		name: "access", build: testbed.NewAccess, preset: testbed.AccessPreset,
		duplex: true, webModel: qoe.AccessWebModel, cc: "cubic",
		scenarios: testbed.AccessScenarioNames, buffers: sizing.AccessBufferSizes,
	}
	backboneNet = &network{
		name: "backbone", build: testbed.NewBackbone,
		preset: func(name string, _ testbed.Direction) (testbed.Workload, error) {
			return testbed.BackboneWorkload(name)
		},
		webModel: qoe.BackboneWebModel, cc: "reno",
		scenarios: testbed.BackboneScenarioNames, buffers: sizing.BackboneBufferSizes,
	}
	networks = map[string]*network{accessNet.name: accessNet, backboneNet.name: backboneNet}
)

// workloadAxis names a cell's workload the way its CellSpec carries
// it — the Scenario and Direction strings that enter the cache key and
// the CRN seed: a custom mix's canonical encoding (it names its own
// directions, so Direction is ""), or the Table 1 preset name and the
// congestion direction (CellSpec.Canonical drops the direction where
// none exists).
func workloadAxis(scenario string, dir testbed.Direction, mix *testbed.Workload) (name, direction string) {
	if mix != nil {
		return mix.Encode(), ""
	}
	return scenario, dir.String()
}

// populations resolves the session populations a cell starts: the
// custom mix when non-nil (name is its canonical encoding), the named
// Table 1 preset masked by dir otherwise. It runs inside the cell's
// task, so only when the cell is computed; a cache or store hit never
// resolves its workload. Preset names on this path are either literals
// from the preset tables (experiment grids) or pre-validated by
// ProbeSpec.normalize on the caller's goroutine, so the panic is a
// programming-error guard, not a reachable worker crash.
func (n *network) populations(name string, dir testbed.Direction, mix *testbed.Workload) testbed.Spec {
	if mix != nil {
		return mix.Spec(name)
	}
	w, err := n.preset(name, dir)
	if err != nil {
		panic("experiments: " + err.Error())
	}
	return w.TableSpec(name)
}

// joinTags joins non-empty canonical tag fragments with ";",
// allocating once per fragment past the first.
func joinTags(tags ...string) string {
	out := ""
	for _, t := range tags {
		switch {
		case t == "":
		case out == "":
			out = t
		default:
			out += ";" + t
		}
	}
	return out
}

// cellJob pairs a cell task with the grid coordinates its value lands
// in, so a runner builds both in one append and the task/label
// pairing can never drift.
type cellJob struct {
	task     engine.Task
	row, col string
}

func msToDuration(ms float64) time.Duration {
	return time.Duration(ms * float64(time.Millisecond))
}

// simMetricsOf bundles a finished testbed's simulator and packet-pool
// counters for the telemetry flush. Called only on instrumented runs,
// after the cell's simulation has completed.
func simMetricsOf(se *sim.Engine, nw *netem.Network) telemetry.SimMetrics {
	m := se.Metrics()
	return telemetry.SimMetrics{
		EventsPooled:   m.EventsPooled,
		EventsOwned:    m.EventsOwned,
		TimerRecycles:  m.TimerRecycles,
		PacketRecycles: nw.PacketRecycles(),
		HeapHighWater:  m.HeapHighWater,
		NearHighWater:  m.NearHighWater,
	}
}

// finishCell closes a cell's phase clock: remaining time is scored as
// the QoE/aggregation phase, the testbed's simulator counters are
// flushed, and the cell's trace event is emitted. The Enabled guard
// keeps the disabled path free — no spec stringification, no metric
// reads.
func finishCell(pc *telemetry.PhaseClock, sp engine.CellSpec, se *sim.Engine, nw *netem.Network, cs *CellScratch) {
	if !pc.Enabled() {
		return
	}
	if cs != nil {
		pc.Content(cs.use)
	}
	pc.Done(sp.String(), simMetricsOf(se, nw))
}

// --- The cell builder ---------------------------------------------

// optFields names the Options fields a foreground's outcome depends
// on; only those enter its CellSpec (a web cell does not read
// ClipSeconds, so probes with different clip settings share it).
type optFields uint8

const (
	optWarmup optFields = 1 << iota
	optReps
	optStop // the adaptive-replication rule gates the rep loop
	optClip
	optDuration
)

// foreground is the measurement a cell runs on its testbed: a VoIP,
// web or video rep loop, or a characterization of the background
// itself.
type foreground struct {
	media string // CellSpec.Media
	// lead and trail are the foreground's own Variant fragments, placed
	// before and after the variant's tag.
	lead, trail string
	uses        optFields
	// conns, clip, profile and rec are the web and video runs'
	// parameters (webFG, videoFG), held as data rather than captured so
	// that building a probe's foreground allocates no closure: a cache
	// hit builds one for its CellSpec fields alone.
	conns   int
	clip    video.Clip
	profile video.Profile
	rec     video.Recovery
	// run measures on the built, workload-started testbed and returns
	// the cell value. o carries the cell's derived seed. It marks the
	// end of the build and sim phases on pc.
	run func(fg *foreground, n *network, tb *testbed.Testbed, o Options, cs *CellScratch, pc *telemetry.PhaseClock) any
}

// cellSpec names one cell: the foreground measured on the network
// under the named workload (or v.mix) at the given downlink buffer.
// Every testbed cell of every runner and probe is named here, so the
// CellSpec a configuration maps to — its cache key, store address and
// CRN seed — is decided in exactly one place. It reads the variant's
// tag and the foreground's tags only, so the queue and CC factories
// and the run need not exist yet.
func cellSpec(o Options, n *network, scenario string, dir testbed.Direction, buf int, v *variant, fg *foreground) engine.CellSpec {
	name, direction := workloadAxis(scenario, dir, v.mix)
	sp := engine.CellSpec{
		Testbed: n.name, Scenario: name, Direction: direction,
		Buffer: buf, BufferUp: v.bufUp, Media: fg.media,
		Variant: joinTags(fg.lead, v.tag, fg.trail), Link: v.linkTag,
		Seed: o.Seed,
	}
	if fg.uses&optWarmup != 0 {
		sp.Warmup = o.Warmup
	}
	if fg.uses&optReps != 0 {
		sp.Reps = o.Reps
	}
	if fg.uses&optStop != 0 {
		sp.Stop = o.stop().tag()
	}
	if fg.uses&optClip != 0 {
		sp.ClipSeconds = o.ClipSeconds
	}
	if fg.uses&optDuration != 0 {
		sp.Duration = o.Duration
	}
	return sp
}

// cellTask pairs a cell's spec with the closure that simulates it.
func cellTask(o Options, n *network, scenario string, dir testbed.Direction, buf int, v variant, fg foreground) engine.Task {
	return engine.NewTask(cellSpec(o, n, scenario, dir, buf, &v, &fg), cellFunc(o, n, scenario, dir, buf, v, fg))
}

// cellFunc is the closure that simulates the cell cellSpec names for
// the same arguments.
func cellFunc(o Options, n *network, scenario string, dir testbed.Direction, buf int, v variant, fg foreground) engine.CellFunc {
	name, _ := workloadAxis(scenario, dir, v.mix)
	return func(sp engine.CellSpec, seed uint64, scr engine.Scratch) any {
		cs := scratchOf(scr)
		pc := o.Collector.StartCell()
		oc := o
		oc.Seed = seed
		cfg := v.config(buf, seed)
		cfg.Scratch = cs.tb()
		tb := n.build(cfg)
		// Idle workloads (noBG and empty mixes) leave the testbed
		// untouched.
		if wl := n.populations(name, dir, v.mix); wl.HasTraffic() {
			tb.StartWorkload(wl)
		}
		val := fg.run(&fg, n, tb, oc, cs, &pc)
		finishCell(&pc, sp, tb.Eng, tb.Net, cs)
		return val
	}
}

// --- VoIP foregrounds ---------------------------------------------

// voipFG is Reps calls under the workload: bidirectional pairs scored
// per direction (plus the uplink-path characteristics the ablations
// read) on a duplex network, the paper's unidirectional server ->
// client calls and a bare median MOS otherwise. A pair's directions
// share the conversational delay impairment (the paper's Section 7.2),
// and the stopping rule waits for both.
var voipFG = foreground{
	media: "voip", uses: optWarmup | optReps | optStop,
	run: func(_ *foreground, n *network, tb *testbed.Testbed, o Options, cs *CellScratch, pc *telemetry.PhaseClock) any {
		if !n.duplex {
			mosS := cs.sample(0)
			runReps(tb.Eng, o, pc, callSpacing, func(i int, scored func()) {
				voip.Start(tb.MediaServer, tb.MediaClient, cs.speech(o, i), 0, func(r voip.Result) { mosS.Add(r.MOS); scored() })
			}, mosS)
			return mosS.Median()
		}
		listenS, talkS := cs.sample(0), cs.sample(1)
		runReps(tb.Eng, o, pc, callSpacing, func(i int, scored func()) {
			voip.StartPair(tb.MediaClient, tb.MediaServer, cs.speech(o, 2*i), cs.speech(o, 2*i+1), 0,
				func(pr voip.PairResult) {
					listenS.Add(pr.Listen.MOS)
					talkS.Add(pr.Talk.MOS)
					scored()
				})
		}, listenS, talkS)
		return voipScore{
			Listen: listenS.Median(), Talk: talkS.Median(),
			UpDelayMs: tb.UpMon.MeanDelayMs(),
			UpUtilPct: tb.UpLinkMonitor().MeanUtilization(tb.Eng.Now()),
		}
	},
}

// playoutFG is the fixed-vs-adaptive playout-buffer comparison: the
// same unidirectional calls, reporting signal quality and application
// loss besides the MOS.
func playoutFG(mode string) foreground {
	return foreground{
		media: "voip", lead: "playout=" + mode, uses: optWarmup | optReps,
		run: func(_ *foreground, _ *network, tb *testbed.Testbed, o Options, cs *CellScratch, pc *telemetry.PhaseClock) any {
			mosS, z1S, lossS := cs.sample(0), cs.sample(1), cs.sample(2)
			runReps(tb.Eng, o, pc, callSpacing, func(i int, scored func()) {
				done := func(r voip.Result) {
					mosS.Add(r.MOS)
					z1S.Add(r.Z1)
					lossS.Add(r.LossPct())
					scored()
				}
				if mode == "adaptive" {
					voip.StartAdaptive(tb.MediaServer, tb.MediaClient, cs.speech(o, i), done)
				} else {
					voip.Start(tb.MediaServer, tb.MediaClient, cs.speech(o, i), 0, done)
				}
			})
			return playoutScore{MOS: mosS.Median(), Z1: z1S.Median(), LossPct: lossS.Median()}
		},
	}
}

// --- Web foreground -----------------------------------------------

// webFG is Reps sequential fetches of the paper's static page, or
// browser-style parallel fetches over conns connections when
// conns > 0; the cell value is the median PLT.
func webFG(conns int) foreground {
	fg := foreground{media: "web", uses: optWarmup | optReps | optStop, conns: conns, run: runWeb}
	if conns > 0 {
		fg.trail = fmt.Sprintf("par=%d", conns)
	}
	return fg
}

// runWeb is webFG's run. The stopping rule reads each PLT mapped onto
// the network's WebQoE model, in MOS points like every other media.
func runWeb(fg *foreground, n *network, tb *testbed.Testbed, o Options, cs *CellScratch, pc *telemetry.PhaseClock) any {
	conns := fg.conns
	if conns > 0 {
		web.RegisterBrowserServer(tb.MediaServerTCP, web.BrowserPort)
	} else {
		web.RegisterServer(tb.MediaServerTCP, web.Port)
	}
	mos := n.webModel().MOS
	plts, mosS := cs.sample(0), cs.sample(1)
	runReps(tb.Eng, o, pc, 0, func(_ int, scored func()) {
		done := func(r web.Result) {
			plts.Add(r.PLT.Seconds())
			mosS.Add(mos(r.PLT))
			scored()
		}
		if conns > 0 {
			web.FetchParallel(tb.MediaClientTCP, tb.MediaServer.Addr(web.BrowserPort), conns, 60*time.Second, done)
		} else {
			web.Fetch(tb.MediaClientTCP, tb.MediaServer.Addr(web.Port), 60*time.Second, done)
		}
	}, mosS)
	return time.Duration(plts.Median() * float64(time.Second))
}

// --- Video foregrounds --------------------------------------------

// videoVariantTag is a video foreground's variant lead. Clip C
// without recovery at the paper's two profiles — every video probe —
// is rendered once, so a warm probe cell renders no tag.
func videoVariantTag(clip video.Clip, p video.Profile, rec video.Recovery) string {
	if clip.Name == video.ClipC.Name && rec == video.RecoveryNone {
		if tag, ok := clipCTags[p.Name]; ok {
			return tag
		}
	}
	return renderVideoTag(clip, p, rec)
}

var clipCTags = map[string]string{
	video.SD.Name: renderVideoTag(video.ClipC, video.SD, video.RecoveryNone),
	video.HD.Name: renderVideoTag(video.ClipC, video.HD, video.RecoveryNone),
}

func renderVideoTag(clip video.Clip, p video.Profile, rec video.Recovery) string {
	tag := "clip=" + clip.Name + ";profile=" + p.Name
	if rec != video.RecoveryNone {
		tag += ";rec=" + rec.String()
	}
	return tag
}

// videoFG is Reps sequential RTP streams of the clip, optionally with
// ARQ/FEC recovery. The paper's access grids congest the download
// direction only (IPTV is downstream); the composable probe path may
// ask for upload or bidirectional background congestion instead.
func videoFG(clip video.Clip, p video.Profile, rec video.Recovery) foreground {
	return foreground{
		media: "video", lead: videoVariantTag(clip, p, rec),
		uses: optWarmup | optReps | optStop | optClip,
		clip: clip, profile: p, rec: rec, run: runVideo,
	}
}

// runVideo is videoFG's run. The stopping rule reads each SSIM mapped
// through the paper's SSIM-to-MOS curve, in MOS points.
func runVideo(fg *foreground, _ *network, tb *testbed.Testbed, o Options, cs *CellScratch, pc *telemetry.PhaseClock) any {
	src := cs.source(o, fg.clip, fg.profile)
	rec := fg.rec
	ssims, psnrs, mosS := cs.sample(0), cs.sample(1), cs.sample(2)
	spacing := time.Duration(o.ClipSeconds)*time.Second + video.StartupDelay + 5*time.Second
	runReps(tb.Eng, o, pc, spacing, func(_ int, scored func()) {
		video.Start(tb.MediaServer, tb.MediaClient, src,
			video.Config{Smooth: true, Seed: o.Seed, Recovery: rec}, func(r video.Result) {
				ssims.Add(r.MeanSSIM)
				psnrs.Add(r.MeanPSNR)
				mosS.Add(qoe.SSIMToMOS(r.MeanSSIM))
				scored()
			})
	}, mosS)
	return videoScore{SSIM: ssims.Median(), PSNR: psnrs.Median()}
}

// smoothingFG is the sender-smoothing ablation's single SD stream
// (run it on an otherwise idle link).
func smoothingFG(smooth bool) foreground {
	mode := "burst"
	if smooth {
		mode = "smooth"
	}
	return foreground{
		media: "video", lead: "single;mode=" + mode + ";profile=SD", uses: optClip,
		run: func(_ *foreground, _ *network, tb *testbed.Testbed, o Options, cs *CellScratch, pc *telemetry.PhaseClock) any {
			src := cs.source(o, video.ClipC, video.SD)
			pc.Mark(telemetry.PhaseBuild)
			var got video.Result
			video.Start(tb.MediaServer, tb.MediaClient, src,
				video.Config{Smooth: smooth, Seed: o.Seed},
				func(r video.Result) { got = r; tb.Eng.Halt() })
			tb.Eng.RunFor(cellCap)
			pc.Mark(telemetry.PhaseSim)
			return smoothingScore{SSIM: got.MeanSSIM, LossPct: got.LossPct()}
		},
	}
}

// httpVideoFG is Reps sequential HTTP video sessions; player is
// "progressive", "abr-rate" or "abr-buffer".
func httpVideoFG(player string) foreground {
	return foreground{
		media: "httpvideo", lead: "player=" + player, uses: optWarmup | optReps | optClip,
		run: func(_ *foreground, _ *network, tb *testbed.Testbed, o Options, cs *CellScratch, pc *telemetry.PhaseClock) any {
			mediaDur := time.Duration(o.ClipSeconds*4) * time.Second
			mosS, rateS := cs.sample(0), cs.sample(1)
			// watch plays one session and reports its MOS and bitrate.
			var watch func(done func(mos, bitrate float64))
			if player == "progressive" {
				cfg := httpvideo.Config{Bitrate: 4e6, MediaDuration: mediaDur}
				httpvideo.RegisterServer(tb.MediaServerTCP, httpvideo.Port, cfg)
				watch = func(done func(mos, bitrate float64)) {
					httpvideo.Watch(tb.MediaClientTCP, tb.MediaServer.Addr(httpvideo.Port), cfg,
						func(r httpvideo.Result) { done(r.MOS, 4e6) })
				}
			} else {
				cfg := httpvideo.ABRConfig{MediaDuration: mediaDur}
				if player == "abr-buffer" {
					cfg.Algorithm = httpvideo.ABRBuffer
				}
				httpvideo.RegisterABRServer(tb.MediaServerTCP, httpvideo.ABRPort, cfg)
				watch = func(done func(mos, bitrate float64)) {
					httpvideo.WatchABR(tb.MediaClientTCP, tb.MediaServer.Addr(httpvideo.ABRPort), cfg,
						func(r httpvideo.ABRResult) { done(r.MOS, r.MeanBitrate) })
				}
			}
			runReps(tb.Eng, o, pc, 0, func(_ int, scored func()) {
				watch(func(mos, bitrate float64) {
					mosS.Add(mos)
					rateS.Add(bitrate)
					scored()
				})
			})
			return httpScore{MOS: mosS.Median(), Bitrate: rateS.Median()}
		},
	}
}

// --- Background characterization foreground -----------------------

// backgroundFG runs the workload alone for Warmup+Duration and reports
// the link/queue statistics; up-side metrics exist where the network
// observes its uplink.
var backgroundFG = foreground{
	media: "background", uses: optDuration | optWarmup,
	run: func(_ *foreground, _ *network, tb *testbed.Testbed, o Options, _ *CellScratch, pc *telemetry.PhaseClock) any {
		pc.Mark(telemetry.PhaseBuild)
		tb.Eng.RunFor(o.Warmup + o.Duration)
		pc.Mark(telemetry.PhaseSim)
		now := tb.Eng.Now()
		down := tb.DownLinkMonitor()
		m := bgMetrics{
			UtilDownPct: down.MeanUtilization(now),
			SdDown:      down.UtilSamples.Std(),
			LossDownPct: 100 * tb.DownMon.LossRate(),
			DelayDownMs: tb.DownMon.MeanDelayMs(),
			DownBox:     stats.BoxplotOf(&down.UtilSamples),
		}
		if tb.UpMon != nil {
			up := tb.UpLinkMonitor()
			m.UtilUpPct = up.MeanUtilization(now)
			m.SdUp = up.UtilSamples.Std()
			m.LossUpPct = 100 * tb.UpMon.LossRate()
			m.DelayUpMs = tb.UpMon.MeanDelayMs()
			m.UpBox = stats.BoxplotOf(&up.UtilSamples)
		}
		if tb.UpGen != nil {
			m.Conc += tb.UpGen.Stats().Concurrent.Mean()
		}
		if tb.DownGen != nil {
			m.Conc += tb.DownGen.Stats().Concurrent.Mean()
		}
		return m
	},
}

// --- Wild (Section 3) cell ----------------------------------------

// wildTask describes the synthetic CDN population analysis shared by
// the three Figure 1 panels; its only inputs are the seed and the
// population size.
func wildTask(o Options) engine.Task {
	sp := engine.CellSpec{
		Media: "wild", Seed: o.Seed, CDNFlows: o.CDNFlows,
	}
	return engine.NewTask(sp, engine.CellFunc(func(_ engine.CellSpec, seed uint64, _ engine.Scratch) any {
		flows := cdn.Generate(cdn.Config{Flows: o.CDNFlows, Seed: seed})
		return cdn.Analyze(flows, cdn.MinSamplesDefault)
	}))
}
