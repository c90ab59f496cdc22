package experiments

import (
	"context"
	"fmt"

	"bufferqoe/internal/qoe"
	"bufferqoe/internal/tcp"
	"bufferqoe/internal/testbed"
	"bufferqoe/internal/video"
)

// extHTTPVideo evaluates the paper's Section 10 future-work claim:
// "initial work on HTTP video streaming is consistent with our
// results". The backbone load ladder is replayed with a TCP
// progressive-download player; QoE comes from the Mok et al. stall
// regression instead of SSIM.
func extHTTPVideo(ctx context.Context, s *Session, o Options) (*Result, error) {
	scenarios := backboneNet.scenarios
	g := NewGrid("Extension: HTTP progressive video on the backbone (Mok et al. MOS)",
		scenarios, bufferCols(backboneNet.buffers))
	var jobs []cellJob
	for _, buf := range backboneNet.buffers {
		col := fmt.Sprintf("%d", buf)
		for _, s := range scenarios {
			jobs = append(jobs, cellJob{cellTask(o, backboneNet, s, testbed.DirDown, buf, variant{}, httpVideoFG("progressive")), s, col})
		}
	}
	err := s.runCells(ctx, jobs, func(row, col string, v any) {
		m := v.(httpScore).MOS
		g.Set(row, col, Cell{Value: m, Class: string(qoe.Rate(m))})
	})
	return &Result{
		ID:    "ext-httpvideo",
		Grids: []*Grid{g},
		Notes: []string{"consistency check vs Figure 9b: workload, not buffer size, decides the score"},
	}, err
}

// extClips reruns the backbone video cell across the three content
// classes (paper Section 8.3: "Comparing the obtained quality scores
// among the three different videos leads to minor differences ...
// the quality scores of all video clips lead to the same primary
// observation"). The ClipC column is shared with fig9b and ext-psnr
// through the cell cache.
func extClips(ctx context.Context, s *Session, o Options) (*Result, error) {
	scenarios := []string{"noBG", "short-medium", "long"}
	var rows []string
	for _, c := range video.Clips {
		rows = append(rows, c.Name)
	}
	g := NewGrid("Extension: per-clip SSIM (SD, backbone, BDP buffer)", rows, scenarios)
	var jobs []cellJob
	for _, s := range scenarios {
		for _, clip := range video.Clips {
			jobs = append(jobs, cellJob{cellTask(o, backboneNet, s, testbed.DirDown, 749, variant{}, videoFG(clip, video.SD, video.RecoveryNone)), clip.Name, s})
		}
	}
	err := s.runCells(ctx, jobs, func(row, col string, v any) {
		ssim := v.(videoScore).SSIM
		g.Set(row, col, Cell{Value: ssim, Class: string(qoe.Rate(qoe.SSIMToMOS(ssim)))})
	})
	return &Result{
		ID:    "ext-clips",
		Grids: []*Grid{g},
		Notes: []string{"per-clip differences should be minor next to the workload effect (paper §8.3)"},
	}, err
}

// ablationSACK quantifies the documented fidelity gap between our
// NewReno-default TCP and the paper's SACK-enabled Linux stacks:
// SACK-enabled background flows sustain the bloated uplink's standing
// queue (mean delay moves toward the paper's Figure 4c numbers),
// where NewReno flows let it drain between loss events. The newreno
// column is the default configuration, i.e. the cached fig7b
// long-many/256 cell.
func ablationSACK(ctx context.Context, s *Session, o Options) (*Result, error) {
	g := NewGrid("Ablation: SACK vs NewReno background flows (upstream long-many, 256-pkt uplink)",
		[]string{"mean uplink delay (ms)", "talk MOS", "uplink util %"},
		[]string{"newreno", "sack"})
	var jobs []cellJob
	for _, mode := range []string{"newreno", "sack"} {
		v := variant{}
		if mode == "sack" {
			v = variant{tag: "tcp=sack", tcpCfg: tcp.Config{SACK: true}}
		}
		jobs = append(jobs, cellJob{cellTask(o, accessNet, "long-many", testbed.DirUp, 256, v, voipFG), "", mode})
	}
	err := s.runCells(ctx, jobs, func(_, mode string, v any) {
		p := v.(voipScore)
		g.Set("mean uplink delay (ms)", mode, Cell{
			Value: p.UpDelayMs,
			Class: qoe.ClassifyDelay(msToDuration(p.UpDelayMs)).String(),
		})
		g.Set("talk MOS", mode, Cell{Value: p.Talk, Class: string(qoe.VoIPSatisfaction(p.Talk))})
		g.Set("uplink util %", mode, Cell{Value: p.UpUtilPct})
	})
	return &Result{ID: "abl-sack", Grids: []*Grid{g}}, err
}

// ablationPlayout compares the fixed 60 ms jitter buffer against the
// PjSIP-style adaptive playout under downstream jitter: the adaptive
// receiver trades late loss against added delay.
func ablationPlayout(ctx context.Context, s *Session, o Options) (*Result, error) {
	g := NewGrid("Ablation: fixed vs adaptive playout buffer (access, short-many down, 256-pkt buffers)",
		[]string{"MOS", "z1 (signal)", "app loss %"}, []string{"fixed-60ms", "adaptive"})
	var jobs []cellJob
	for _, mode := range []string{"fixed-60ms", "adaptive"} {
		jobs = append(jobs, cellJob{cellTask(o, accessNet, "short-many", testbed.DirDown, 256, variant{}, playoutFG(mode)), "", mode})
	}
	err := s.runCells(ctx, jobs, func(_, mode string, v any) {
		p := v.(playoutScore)
		g.Set("MOS", mode, Cell{Value: p.MOS})
		g.Set("z1 (signal)", mode, Cell{Value: p.Z1})
		g.Set("app loss %", mode, Cell{Value: p.LossPct})
	})
	return &Result{ID: "abl-playout", Grids: []*Grid{g}}, err
}
