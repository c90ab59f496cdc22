package experiments

import (
	"context"
	"fmt"
	"time"

	"bufferqoe/internal/qoe"
	"bufferqoe/internal/sizing"
	"bufferqoe/internal/tcp"
	"bufferqoe/internal/testbed"
)

// ablationAQM answers the question the bufferbloat debate asks of the
// paper: how much of the QoE lost to a bloated, sustainably filled
// uplink buffer does AQM recover? It reruns the paper's worst VoIP
// case (Figure 7b, 256-packet uplink, upstream long-many workload)
// with the drop-tail queue swapped for each post-bufferbloat
// discipline: CoDel (the AQM the paper's §1 cites), RED and its
// self-tuning ARED variant, PIE (the DOCSIS answer), and FQ-CoDel
// (the home-router answer, adding flow isolation).
func ablationAQM(ctx context.Context, s *Session, o Options) (*Result, error) {
	cols := []string{"drop-tail", "codel", "red", "ared", "pie", "fq-codel"}
	var jobs []cellJob
	for _, q := range cols {
		// The names are aqmFactory's own; RNG-bearing disciplines
		// label their stream by name.
		factory, _ := aqmFactory(q, testbed.AccessUpRate, q)
		v := variant{upQueue: factory}
		if factory != nil {
			v.tag = "queue=" + q
		}
		jobs = append(jobs, cellJob{cellTask(o, accessNet, "long-many", testbed.DirUp, 256, v, voipFG), "", q})
	}
	g := NewGrid("Ablation: AQM at a bloated (256-pkt) uplink, upstream long-many workload",
		[]string{"talk MOS", "listen MOS"}, cols)
	err := s.runCells(ctx, jobs, func(_, col string, v any) {
		p := v.(voipScore)
		g.Set("talk MOS", col, Cell{Value: p.Talk, Class: string(qoe.VoIPSatisfaction(p.Talk))})
		g.Set("listen MOS", col, Cell{Value: p.Listen, Class: string(qoe.VoIPSatisfaction(p.Listen))})
	})
	return &Result{ID: "abl-aqm", Grids: []*Grid{g}}, err
}

// ablationCC revisits the paper's Section 5.2 claim that the choice of
// background congestion control (Reno vs CUBIC) "does not
// substantially impact the QoE results": same cell, both algorithms.
// CUBIC is the access testbed's default, so its cell is the cached
// fig7c long-few/64 cell.
func ablationCC(ctx context.Context, s *Session, o Options) (*Result, error) {
	g := NewGrid("Ablation: background congestion control (access, 64-pkt buffers, bidir long-few)",
		[]string{"listen MOS", "talk MOS"}, []string{"cubic", "reno"})
	variants := map[string]variant{
		"cubic": {},
		"reno":  {tag: "cc=reno", cc: tcp.NewReno},
	}
	var jobs []cellJob
	for _, cc := range []string{"cubic", "reno"} {
		jobs = append(jobs, cellJob{cellTask(o, accessNet, "long-few", testbed.DirBidir, 64, variants[cc], voipFG), "", cc})
	}
	err := s.runCells(ctx, jobs, func(_, col string, v any) {
		p := v.(voipScore)
		g.Set("listen MOS", col, Cell{Value: p.Listen, Class: string(qoe.VoIPSatisfaction(p.Listen))})
		g.Set("talk MOS", col, Cell{Value: p.Talk, Class: string(qoe.VoIPSatisfaction(p.Talk))})
	})
	return &Result{ID: "abl-ccalgo", Grids: []*Grid{g}}, err
}

// ablationLoadAware evaluates the paper's Section 10 suggestion of
// load-dependent buffer sizing on WebQoE: static BDP vs static bloat
// vs the load-aware choice under moderate and high load.
func ablationLoadAware(ctx context.Context, s *Session, o Options) (*Result, error) {
	bdp := 64
	scenarios := []struct {
		name string
		util float64 // a-priori utilization class for the scheme
	}{
		{"short-few", 0.45},
		{"long-many", 0.99},
	}
	g := NewGrid("Ablation: load-aware buffer sizing (access downlink, WebQoE)",
		[]string{"short-few", "long-many"},
		[]string{"bdp", "bloat(10x)", "load-aware"})
	model := qoe.AccessWebModel()
	labels := []string{"bdp", "bloat(10x)", "load-aware"}
	var jobs []cellJob
	chosen := map[string]int{}
	for _, sc := range scenarios {
		n := 24 // rough concurrent-flow estimate for the scheme
		choices := map[string]int{
			"bdp":        bdp,
			"bloat(10x)": sizing.BloatedPackets(bdp),
			"load-aware": sizing.LoadAware(bdp, n, sc.util),
		}
		for _, label := range labels {
			buf := choices[label]
			jobs = append(jobs, cellJob{cellTask(o, accessNet, sc.name, testbed.DirDown, buf, variant{bufUp: 8}, webFG(0)), sc.name, label})
			chosen[sc.name+"/"+label] = buf
		}
	}
	err := s.runCells(ctx, jobs, func(row, col string, v any) {
		plt := v.(time.Duration)
		mos := model.MOS(plt)
		g.Set(row, col, Cell{
			Value: mos,
			Text:  fmt.Sprintf("MOS %.1f @%dp", mos, chosen[row+"/"+col]),
			Class: string(qoe.Rate(mos)),
		})
	})
	return &Result{ID: "abl-loadaware", Grids: []*Grid{g}}, err
}

// ablationSmoothing quantifies Section 8.1's point that unsmoothed
// VLC-style frame bursts overflow access buffers even on an idle
// link.
func ablationSmoothing(ctx context.Context, s *Session, o Options) (*Result, error) {
	g := NewGrid("Ablation: video sender smoothing (access, idle link)",
		[]string{"SSIM", "loss %"}, []string{"smooth-8pkt", "burst-8pkt", "smooth-64pkt", "burst-64pkt"})
	var jobs []cellJob
	for _, buf := range []int{8, 64} {
		for _, smooth := range []bool{true, false} {
			label := map[bool]string{true: "smooth", false: "burst"}[smooth]
			jobs = append(jobs, cellJob{cellTask(o, accessNet, "noBG", testbed.DirDown, buf, variant{}, smoothingFG(smooth)), "", fmt.Sprintf("%s-%dpkt", label, buf)})
		}
	}
	err := s.runCells(ctx, jobs, func(_, col string, v any) {
		sc := v.(smoothingScore)
		g.Set("SSIM", col, Cell{Value: sc.SSIM})
		g.Set("loss %", col, Cell{Value: sc.LossPct})
	})
	return &Result{ID: "abl-smoothing", Grids: []*Grid{g}}, err
}
