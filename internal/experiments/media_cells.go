package experiments

import (
	"context"
	"fmt"
	"time"

	"bufferqoe/internal/qoe"
	"bufferqoe/internal/testbed"
	"bufferqoe/internal/video"
)

// panelDir maps the access figures' panel letter onto its congestion
// direction: "a" download, "b" upload, "c" both.
func panelDir(panel string) testbed.Direction {
	switch panel {
	case "b":
		return testbed.DirUp
	case "c":
		return testbed.DirBidir
	}
	return testbed.DirDown
}

// fig7 regenerates the Figure 7 access VoIP heatmaps: panel "a" is
// download congestion, "b" upload congestion. Variant "c" is the
// combined up+down scenario the paper describes in §7.2 ("plot not
// shown": results resemble upload-only, with the listen direction
// slightly worse from the added downlink traffic).
func fig7(ctx context.Context, s *Session, o Options, panel string) (*Result, error) {
	dir := panelDir(panel)
	scenarios := accessNet.scenarios
	var rows []string
	for _, half := range []string{"user-listens", "user-talks"} {
		for _, s := range scenarios {
			rows = append(rows, half+"/"+s)
		}
	}
	g := NewGrid(fmt.Sprintf("Figure 7%s: VoIP access median MOS, %s congestion", panel, dir),
		rows, bufferCols(accessNet.buffers))
	var jobs []cellJob
	for _, buf := range accessNet.buffers {
		col := fmt.Sprintf("%d", buf)
		for _, s := range scenarios {
			jobs = append(jobs, cellJob{cellTask(o, accessNet, s, dir, buf, variant{}, voipFG), s, col})
		}
	}
	err := s.runCells(ctx, jobs, func(row, col string, v any) {
		p := v.(voipScore)
		g.Set("user-listens/"+row, col, Cell{Value: p.Listen, Class: string(qoe.VoIPSatisfaction(p.Listen))})
		g.Set("user-talks/"+row, col, Cell{Value: p.Talk, Class: string(qoe.VoIPSatisfaction(p.Talk))})
	})
	return &Result{ID: "fig7" + panel, Grids: []*Grid{g}}, err
}

// fig8 regenerates the Figure 8 backbone VoIP heatmap (unidirectional
// calls, server -> client, as in the paper).
func fig8(ctx context.Context, s *Session, o Options) (*Result, error) {
	scenarios := backboneNet.scenarios
	g := NewGrid("Figure 8: VoIP backbone median MOS", scenarios, bufferCols(backboneNet.buffers))
	var jobs []cellJob
	for _, buf := range backboneNet.buffers {
		col := fmt.Sprintf("%d", buf)
		for _, s := range scenarios {
			jobs = append(jobs, cellJob{cellTask(o, backboneNet, s, testbed.DirDown, buf, variant{}, voipFG), s, col})
		}
	}
	err := s.runCells(ctx, jobs, func(row, col string, v any) {
		m := v.(float64)
		g.Set(row, col, Cell{Value: m, Class: string(qoe.VoIPSatisfaction(m))})
	})
	return &Result{ID: "fig8", Grids: []*Grid{g}}, err
}

// fig9 regenerates the Figure 9 video heatmaps: panel "a" is the
// access testbed (download congestion only: IPTV is downstream),
// "b" the backbone.
func fig9(ctx context.Context, s *Session, o Options, panel string) (*Result, error) {
	profiles := []video.Profile{video.SD, video.HD}
	clip := video.ClipC // the clip the paper displays

	net := backboneNet
	if panel == "a" {
		net = accessNet
	}
	scenarios, cols := net.scenarios, bufferCols(net.buffers)
	var rows []string
	for _, p := range profiles {
		for _, s := range scenarios {
			rows = append(rows, p.Name+"/"+s)
		}
	}
	g := NewGrid(fmt.Sprintf("Figure 9%s: median SSIM (video C)", panel), rows, cols)

	var jobs []cellJob
	for bi, buf := range net.buffers {
		col := cols[bi]
		for _, s := range scenarios {
			for _, p := range profiles {
				task := cellTask(o, net, s, testbed.DirDown, buf, variant{}, videoFG(clip, p, video.RecoveryNone))
				jobs = append(jobs, cellJob{task, p.Name + "/" + s, col})
			}
		}
	}
	err := s.runCells(ctx, jobs, func(row, col string, v any) {
		ssim := v.(videoScore).SSIM
		g.Set(row, col, Cell{
			Value: ssim,
			Class: string(qoe.Rate(qoe.SSIMToMOS(ssim))),
		})
	})
	return &Result{ID: "fig9" + panel, Grids: []*Grid{g}}, err
}

// fig10 regenerates the Figure 10 access WebQoE heatmaps: panel "a"
// is download congestion, "b" upload congestion. Variant "c" is the
// combined workload of §9.2 ("not shown": dominated by the upload
// side, with somewhat shorter PLTs than upload-only).
func fig10(ctx context.Context, s *Session, o Options, panel string) (*Result, error) {
	dir := panelDir(panel)
	return webFigure(ctx, s, o, accessNet, dir, "fig10"+panel,
		fmt.Sprintf("Figure 10%s: access median PLT (s) and WebQoE, %s congestion", panel, dir))
}

// fig11 regenerates the Figure 11 backbone WebQoE heatmap.
func fig11(ctx context.Context, s *Session, o Options) (*Result, error) {
	return webFigure(ctx, s, o, backboneNet, testbed.DirDown, "fig11", "Figure 11: backbone median PLT (s) and WebQoE")
}

// webFigure sweeps a network's Table 1 workloads over its Table 2
// buffers with the web foreground and rates each median PLT on the
// network's WebQoE model.
func webFigure(ctx context.Context, s *Session, o Options, n *network, dir testbed.Direction, id, title string) (*Result, error) {
	model := n.webModel()
	g := NewGrid(title, n.scenarios, bufferCols(n.buffers))
	var jobs []cellJob
	for _, buf := range n.buffers {
		col := fmt.Sprintf("%d", buf)
		for _, s := range n.scenarios {
			jobs = append(jobs, cellJob{cellTask(o, n, s, dir, buf, variant{}, webFG(0)), s, col})
		}
	}
	err := s.runCells(ctx, jobs, func(row, col string, v any) {
		plt := v.(time.Duration)
		mos := model.MOS(plt)
		g.Set(row, col, Cell{
			Value: plt.Seconds(),
			Text:  fmt.Sprintf("%.2fs/MOS %.1f", plt.Seconds(), mos),
			Class: string(qoe.Rate(mos)),
		})
	})
	return &Result{ID: id, Grids: []*Grid{g}}, err
}
