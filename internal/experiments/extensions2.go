package experiments

import (
	"context"
	"fmt"
	"time"

	"bufferqoe/internal/aqm"
	"bufferqoe/internal/netem"
	"bufferqoe/internal/qoe"
	"bufferqoe/internal/tcp"
	"bufferqoe/internal/testbed"
	"bufferqoe/internal/video"
)

// codelUpQueue and fqCodelUpQueue are the RFC 8289 §4.4 slow-link
// CoDel flavours several web ablations put at the access uplink.
var (
	codelUpQueue, _   = aqmFactory("codel", testbed.AccessUpRate, "")
	fqCodelUpQueue, _ = aqmFactory("fq-codel", testbed.AccessUpRate, "")
)

// ablationIW10 tests the engineering change the bufferbloat argument
// was used to oppose — raising TCP's initial window from 3 to 10
// segments (Gettys, "IW10 considered harmful", paper reference [18]).
// If queues are already bloated and filled, a larger IW injects a
// burst into a standing queue; the experiment measures what that does
// to the page a user is loading over the same uplink. IW3 is the
// paper-era default, so those cells are the cached fig10b column.
func ablationIW10(ctx context.Context, s *Session, o Options) (*Result, error) {
	model := qoe.AccessWebModel()
	bufs := []int{8, 64, 256}
	cols := bufferCols(bufs)
	g := NewGrid("Ablation: initial window 3 vs 10 (access web, upstream long-many congestion)",
		[]string{"IW3 PLT", "IW10 PLT", "IW3 MOS", "IW10 MOS"}, cols)
	var jobs []cellJob
	for bi, buf := range bufs {
		for _, iw := range []int{3, 10} {
			v := variant{}
			if iw != 3 {
				v = variant{tag: "iw=10", tcpCfg: tcp.Config{InitialWindow: 10}}
			}
			jobs = append(jobs, cellJob{cellTask(o, accessNet, "long-many", testbed.DirUp, buf, v, webFG(0)),
				fmt.Sprintf("IW%d", iw), cols[bi]})
		}
	}
	err := s.runCells(ctx, jobs, func(row, col string, v any) {
		plt := v.(time.Duration)
		mos := model.MOS(plt)
		g.Set(row+" PLT", col, Cell{
			Value: plt.Seconds(), Text: fmt.Sprintf("%.2fs", plt.Seconds()),
		})
		g.Set(row+" MOS", col, Cell{
			Value: mos, Class: string(qoe.Rate(mos)),
		})
	})
	return &Result{
		ID:    "abl-iw10",
		Grids: []*Grid{g},
		Notes: []string{"IW10's QoE effect is bounded by the same logic as buffer size: under sustained congestion the PLT is already in the 'bad' band either way"},
	}, err
}

// ablationECN pairs ECN-enabled TCP with marking AQM at the bloated
// uplink: congestion feedback arrives without packet loss, so the web
// transfer suffers neither retransmissions nor (thanks to CoDel) the
// standing-queue RTT. Three columns: the paper's drop-tail baseline,
// CoDel dropping, CoDel marking with ECN endpoints. The workload is
// long-few (one upstream bulk flow) — the regime an AQM can actually
// control at 1 Mbit/s; with long-many the per-flow window floor keeps
// the sojourn above any feasible target (that pathological case is
// what FQ-CoDel's flow isolation addresses, see ext-fqcodel-web).
// The CoDel target follows RFC 8289 §4.4's slow-link rule.
func ablationECN(ctx context.Context, s *Session, o Options) (*Result, error) {
	model := qoe.AccessWebModel()
	configs := []struct {
		name string
		v    variant
	}{
		{"drop-tail", variant{}},
		{"codel-drop", variant{tag: "queue=codel", upQueue: codelUpQueue}},
		{"codel-ecn", variant{
			tag:    "queue=codel-ecn",
			tcpCfg: tcp.Config{ECN: true},
			upQueue: func(capPkts int, _ uint64) netem.Queue {
				c := aqm.NewCoDelForRate(capPkts, testbed.AccessUpRate)
				c.ECN = true
				return c
			},
		}},
	}
	cols := make([]string, len(configs))
	var jobs []cellJob
	for i, c := range configs {
		cols[i] = c.name
		jobs = append(jobs, cellJob{cellTask(o, accessNet, "long-few", testbed.DirUp, 256, c.v, webFG(0)), "", c.name})
	}
	g := NewGrid("Ablation: ECN at a bloated (256-pkt) uplink (web under upstream long-few)",
		[]string{"PLT", "MOS"}, cols)
	err := s.runCells(ctx, jobs, func(_, col string, v any) {
		plt := v.(time.Duration)
		mos := model.MOS(plt)
		g.Set("PLT", col, Cell{Value: plt.Seconds(), Text: fmt.Sprintf("%.2fs", plt.Seconds())})
		g.Set("MOS", col, Cell{Value: mos, Class: string(qoe.Rate(mos))})
	})
	return &Result{ID: "abl-ecn", Grids: []*Grid{g}}, err
}

// ablationByteQueue compares packet-counted and byte-counted uplink
// buffers of equal nominal capacity. Buffer sizing debates usually
// count packets (as the paper's Table 2 does, following the NetFPGA
// and line-card convention); counting bytes changes which packets a
// full buffer turns away — a 60-byte VoIP frame no longer costs the
// same share as a 1500-byte bulk segment.
func ablationByteQueue(ctx context.Context, s *Session, o Options) (*Result, error) {
	const pkts = 64
	queues := []struct {
		name string
		v    variant
	}{
		{"pkt-64", variant{}},
		{fmt.Sprintf("bytes-%dK", pkts*netem.MTU/1024), variant{
			tag: "queue=bytes-mtu",
			upQueue: func(int, uint64) netem.Queue {
				return netem.NewDropTailBytes(pkts * netem.MTU)
			},
		}},
		{"bytes-24K", variant{
			tag: "queue=bytes-24k",
			upQueue: func(int, uint64) netem.Queue {
				return netem.NewDropTailBytes(24 * 1024)
			},
		}},
	}
	cols := make([]string, len(queues))
	var jobs []cellJob
	for i, q := range queues {
		cols[i] = q.name
		jobs = append(jobs, cellJob{cellTask(o, accessNet, "long-many", testbed.DirUp, pkts, q.v, voipFG), "", q.name})
	}
	g := NewGrid("Ablation: packet- vs byte-counted uplink buffer (VoIP under upstream long-many)",
		[]string{"talk MOS", "listen MOS"}, cols)
	err := s.runCells(ctx, jobs, func(_, col string, v any) {
		p := v.(voipScore)
		g.Set("talk MOS", col, Cell{Value: p.Talk, Class: string(qoe.VoIPSatisfaction(p.Talk))})
		g.Set("listen MOS", col, Cell{Value: p.Listen, Class: string(qoe.VoIPSatisfaction(p.Listen))})
	})
	return &Result{
		ID:    "abl-bytequeue",
		Grids: []*Grid{g},
		Notes: []string{"equal nominal capacity: 64 packets vs 64 MTU of bytes; the 24K column is a deliberately delay-tight byte budget"},
	}, err
}

// ablationIQX rescores the Figure 10b upload-congestion web cells
// under the exponential IQX mapping instead of the logarithmic G.1030
// one. The paper's conclusion — buffer size barely moves WebQoE once
// congestion has pushed the PLT into the saturated region — should
// survive the change of curve. The underlying cells are plain
// long-few upstream web runs, shared with ext-parweb's sequential
// column through the cache.
func ablationIQX(ctx context.Context, s *Session, o Options) (*Result, error) {
	logModel := qoe.AccessWebModel()
	iqxModel := qoe.NewIQXWebModel(logModel)
	bufs := []int{8, 64, 256}
	cols := make([]string, len(bufs))
	var jobs []cellJob
	for i, b := range bufs {
		cols[i] = fmt.Sprintf("%d", b)
		jobs = append(jobs, cellJob{cellTask(o, accessNet, "long-few", testbed.DirUp, b, variant{}, webFG(0)), "", cols[i]})
	}
	g := NewGrid("Ablation: G.1030 (log) vs IQX (exp) scoring of access web, upstream long-few",
		[]string{"PLT", "G.1030 MOS", "IQX MOS"}, cols)
	err := s.runCells(ctx, jobs, func(_, col string, v any) {
		plt := v.(time.Duration)
		lm, im := logModel.MOS(plt), iqxModel.MOS(plt)
		g.Set("PLT", col, Cell{Value: plt.Seconds(), Text: fmt.Sprintf("%.2fs", plt.Seconds())})
		g.Set("G.1030 MOS", col, Cell{Value: lm, Class: string(qoe.Rate(lm))})
		g.Set("IQX MOS", col, Cell{Value: im, Class: string(qoe.Rate(im))})
	})
	return &Result{
		ID:    "abl-iqx",
		Grids: []*Grid{g},
		Notes: []string{"the two curves may disagree on mid-range scores but must agree on the buffer-size conclusion (both saturate)"},
	}, err
}

// extRecovery quantifies the quality headroom the paper's §8.4 leaves
// on the table: the same backbone video cells with the MSTV-style ARQ
// (reference [24]) and with 10% XOR FEC.
func extRecovery(ctx context.Context, s *Session, o Options) (*Result, error) {
	scenarios := []string{"short-medium", "short-high"}
	schemes := []video.Recovery{video.RecoveryNone, video.RecoveryARQ, video.RecoveryFEC}
	var rows []string
	for _, r := range schemes {
		rows = append(rows, r.String())
	}
	g := NewGrid("Extension: RTP error recovery (SD video, backbone, 28-pkt buffer)", rows, scenarios)
	var jobs []cellJob
	for _, s := range scenarios {
		for _, rec := range schemes {
			jobs = append(jobs, cellJob{cellTask(o, backboneNet, s, testbed.DirDown, 28, variant{}, videoFG(video.ClipC, video.SD, rec)), rec.String(), s})
		}
	}
	err := s.runCells(ctx, jobs, func(row, col string, v any) {
		ssim := v.(videoScore).SSIM
		g.Set(row, col, Cell{Value: ssim, Class: string(qoe.Rate(qoe.SSIMToMOS(ssim)))})
	})
	return &Result{
		ID:    "ext-recovery",
		Grids: []*Grid{g},
		Notes: []string{"paper §8.4: 'systems deploying active (retransmission) or passive (FEC) error recovery can achieve higher quality' — quantified here"},
	}, err
}

// extPSNR reruns representative Figure 9b cells scoring with PSNR as
// well as SSIM. The paper omits its PSNR heatmaps because "they yield
// predicted scores similar to those obtained by SSIM"; this experiment
// verifies that equivalence holds in the reproduction too. Every cell
// here is a cache hit after fig9b/ext-clips: video cells always carry
// both scores.
func extPSNR(ctx context.Context, s *Session, o Options) (*Result, error) {
	scenarios := []string{"noBG", "short-medium", "long"}
	g := NewGrid("Extension: SSIM vs PSNR scoring (SD video, backbone, BDP buffer)",
		[]string{"SSIM", "SSIM MOS", "PSNR dB", "PSNR MOS"}, scenarios)
	var jobs []cellJob
	for _, s := range scenarios {
		jobs = append(jobs, cellJob{cellTask(o, backboneNet, s, testbed.DirDown, 749, variant{}, videoFG(video.ClipC, video.SD, video.RecoveryNone)), "", s})
	}
	err := s.runCells(ctx, jobs, func(_, col string, v any) {
		sc := v.(videoScore)
		sm, pm := qoe.SSIMToMOS(sc.SSIM), qoe.PSNRToMOS(sc.PSNR)
		g.Set("SSIM", col, Cell{Value: sc.SSIM})
		g.Set("SSIM MOS", col, Cell{Value: sm, Class: string(qoe.Rate(sm))})
		g.Set("PSNR dB", col, Cell{Value: sc.PSNR})
		g.Set("PSNR MOS", col, Cell{Value: pm, Class: string(qoe.Rate(pm))})
	})
	return &Result{
		ID:    "ext-psnr",
		Grids: []*Grid{g},
		Notes: []string{"paper §8.2/§8.3: PSNR heatmaps omitted as similar to SSIM — the two MOS rows should agree on every category"},
	}, err
}

// extJitter re-adds the dimension the paper's testbeds exclude: a
// WiFi-like variable-delay last hop between the client and the home
// router (§5.1: "we decided to omit WiFi connectivity which adds its
// own variable delay characteristics"). VoIP is the sensitive
// application; the sweep shows how much last-hop jitter erodes the
// clean-network score before any buffer sizing question arises.
func extJitter(ctx context.Context, s *Session, o Options) (*Result, error) {
	jitters := []time.Duration{0, 2 * time.Millisecond, 10 * time.Millisecond, 30 * time.Millisecond}
	cols := make([]string, len(jitters))
	for i, j := range jitters {
		cols[i] = j.String()
	}
	g := NewGrid("Extension: WiFi-like last-hop jitter (VoIP, idle vs congested access)",
		[]string{"noBG listen MOS", "short-few listen MOS"}, cols)
	var jobs []cellJob
	for ji, j := range jitters {
		for _, s := range []string{"noBG", "short-few"} {
			v := variant{}
			if j != 0 {
				v = variant{tag: "jitter=" + j.String(), jitter: j}
			}
			jobs = append(jobs, cellJob{cellTask(o, accessNet, s, testbed.DirDown, 64, v, voipFG), s, cols[ji]})
		}
	}
	err := s.runCells(ctx, jobs, func(row, col string, v any) {
		p := v.(voipScore)
		g.Set(row+" listen MOS", col, Cell{Value: p.Listen, Class: string(qoe.VoIPSatisfaction(p.Listen))})
	})
	return &Result{
		ID:    "ext-jitter",
		Grids: []*Grid{g},
		Notes: []string{"jitter consumes playout-buffer headroom: the idle-network ceiling drops before congestion even starts"},
	}, err
}

// extFQCoDelWeb isolates what flow-queueing adds over plain CoDel for
// a mixed workload: the web fetch's ACK/request packets cross the
// congested uplink next to bulk uploads. Plain CoDel bounds the
// standing queue; FQ-CoDel additionally excuses the thin web flow
// from waiting behind the bulk flows at all.
func extFQCoDelWeb(ctx context.Context, s *Session, o Options) (*Result, error) {
	model := qoe.AccessWebModel()
	queues := []struct {
		name string
		v    variant
	}{
		{"drop-tail", variant{}},
		{"codel", variant{tag: "queue=codel", upQueue: codelUpQueue}},
		{"fq-codel", variant{tag: "queue=fq-codel", upQueue: fqCodelUpQueue}},
	}
	cols := make([]string, len(queues))
	var jobs []cellJob
	for i, q := range queues {
		cols[i] = q.name
		jobs = append(jobs, cellJob{cellTask(o, accessNet, "long-many", testbed.DirUp, 256, q.v, webFG(0)), "", q.name})
	}
	g := NewGrid("Extension: FQ-CoDel vs CoDel vs drop-tail (web over a 256-pkt congested uplink, upstream long-many)",
		[]string{"PLT", "MOS"}, cols)
	err := s.runCells(ctx, jobs, func(_, col string, v any) {
		plt := v.(time.Duration)
		mos := model.MOS(plt)
		g.Set("PLT", col, Cell{Value: plt.Seconds(), Text: fmt.Sprintf("%.2fs", plt.Seconds())})
		g.Set("MOS", col, Cell{Value: mos, Class: string(qoe.Rate(mos))})
	})
	return &Result{ID: "ext-fqcodel-web", Grids: []*Grid{g}}, err
}

// ablationBIC completes the paper's §5.2 stack note ("TCP BIC/TCP
// CUBIC for the access") with the third era algorithm: the same
// bidirectional long-few cell under Reno, BIC, and CUBIC background
// traffic. The claim under test is unchanged — the CC choice should
// not move the QoE conclusion.
func ablationBIC(ctx context.Context, s *Session, o Options) (*Result, error) {
	algos := []struct {
		name string
		v    variant
	}{
		{"reno", variant{tag: "cc=reno", cc: tcp.NewReno}},
		{"bic", variant{tag: "cc=bic", cc: tcp.NewBIC}},
		{"cubic", variant{}}, // the access default
	}
	cols := make([]string, len(algos))
	var jobs []cellJob
	for i, al := range algos {
		cols[i] = al.name
		jobs = append(jobs, cellJob{cellTask(o, accessNet, "long-few", testbed.DirBidir, 64, al.v, voipFG), "", al.name})
	}
	g := NewGrid("Ablation: Reno vs BIC vs CUBIC background (access, 64-pkt buffers, bidir long-few)",
		[]string{"listen MOS", "talk MOS", "uplink util %"}, cols)
	err := s.runCells(ctx, jobs, func(_, col string, v any) {
		p := v.(voipScore)
		g.Set("listen MOS", col, Cell{Value: p.Listen, Class: string(qoe.VoIPSatisfaction(p.Listen))})
		g.Set("talk MOS", col, Cell{Value: p.Talk, Class: string(qoe.VoIPSatisfaction(p.Talk))})
		g.Set("uplink util %", col, Cell{Value: p.UpUtilPct})
	})
	return &Result{ID: "abl-bic", Grids: []*Grid{g}}, err
}
