package experiments

import (
	"context"
	"fmt"
	"strings"

	"bufferqoe/internal/qoe"
	"bufferqoe/internal/sizing"
	"bufferqoe/internal/stats"
	"bufferqoe/internal/testbed"
)

// bufferCols renders buffer sizes as column labels.
func bufferCols(sizes []int) []string {
	out := make([]string, len(sizes))
	for i, b := range sizes {
		out[i] = fmt.Sprintf("%d", b)
	}
	return out
}

// table2 regenerates Table 2 by computation (buffer size <-> maximum
// queueing delay).
func table2(ctx context.Context, s *Session, o Options) (*Result, error) {
	g := NewGrid("Table 2: buffer sizes and maximum queueing delays",
		[]string{"access uplink (1 Mbit/s)", "access downlink (16 Mbit/s)", "backbone (OC3)"},
		[]string{"buffers (pkts)", "delays (ms)", "schemes"})
	format := func(rows []sizing.Table2Row) (string, string, string) {
		var bufs, delays, schemes []string
		for _, r := range rows {
			bufs = append(bufs, fmt.Sprintf("%d", r.Packets))
			delays = append(delays, fmt.Sprintf("%.1f", r.Delay.Seconds()*1000))
			if r.Scheme != "" {
				schemes = append(schemes, fmt.Sprintf("%d=%s", r.Packets, r.Scheme))
			}
		}
		return strings.Join(bufs, " "), strings.Join(delays, " "), strings.Join(schemes, " ")
	}
	for row, rows := range map[string][]sizing.Table2Row{
		"access uplink (1 Mbit/s)":    sizing.AccessUplinkTable2(),
		"access downlink (16 Mbit/s)": sizing.AccessDownlinkTable2(),
		"backbone (OC3)":              sizing.BackboneTable2(),
	} {
		b, d, s := format(rows)
		g.Set(row, "buffers (pkts)", Cell{Text: b})
		g.Set(row, "delays (ms)", Cell{Text: d})
		g.Set(row, "schemes", Cell{Text: s})
	}
	return &Result{ID: "table2", Grids: []*Grid{g}}, nil
}

// table1 reruns every Table 1 workload at BDP buffers and reports the
// measured utilization, loss and concurrency.
func table1(ctx context.Context, s *Session, o Options) (*Result, error) {
	cols := []string{"conc flows", "util up %", "util down %", "sd up", "sd down", "loss up %", "loss down %"}
	var rows []string
	var jobs []cellJob
	for _, name := range []string{"short-few", "short-many", "long-few", "long-many"} {
		for _, dir := range []testbed.Direction{testbed.DirUp, testbed.DirBidir, testbed.DirDown} {
			row := fmt.Sprintf("access/%s/%s", name, dir)
			rows = append(rows, row)
			jobs = append(jobs, cellJob{cellTask(o, accessNet, name, dir, 64, variant{bufUp: 8}, backgroundFG), row, ""})
		}
	}
	g := NewGrid("Table 1 (access): measured workload characteristics at BDP buffers", rows, cols)
	if err := s.runCells(ctx, jobs, func(row, _ string, v any) {
		m := v.(bgMetrics)
		g.Set(row, "conc flows", Cell{Value: m.Conc})
		g.Set(row, "util up %", Cell{Value: m.UtilUpPct})
		g.Set(row, "util down %", Cell{Value: m.UtilDownPct})
		g.Set(row, "sd up", Cell{Value: m.SdUp})
		g.Set(row, "sd down", Cell{Value: m.SdDown})
		g.Set(row, "loss up %", Cell{Value: m.LossUpPct})
		g.Set(row, "loss down %", Cell{Value: m.LossDownPct})
	}); err != nil {
		return nil, err
	}

	bbNames := []string{"short-low", "short-medium", "short-high", "short-overload", "long"}
	var bbRows []string
	var bbJobs []cellJob
	for _, name := range bbNames {
		row := "backbone/" + name
		bbRows = append(bbRows, row)
		bbJobs = append(bbJobs, cellJob{cellTask(o, backboneNet, name, testbed.DirDown, 749, variant{}, backgroundFG), row, ""})
	}
	g2 := NewGrid("Table 1 (backbone): measured workload characteristics at BDP buffers",
		bbRows, []string{"conc flows", "util %", "sd", "loss %"})
	err := s.runCells(ctx, bbJobs, func(row, _ string, v any) {
		m := v.(bgMetrics)
		g2.Set(row, "conc flows", Cell{Value: m.Conc})
		g2.Set(row, "util %", Cell{Value: m.UtilDownPct})
		g2.Set(row, "sd", Cell{Value: m.SdDown})
		g2.Set(row, "loss %", Cell{Value: m.LossDownPct})
	})
	return &Result{ID: "table1", Grids: []*Grid{g, g2}}, err
}

// fig4 regenerates the Figure 4 mean-queueing-delay heatmaps for one
// workload direction: "a" = downstream only, "b" = bidirectional,
// "c" = upstream only.
func fig4(ctx context.Context, s *Session, o Options, panel string) (*Result, error) {
	dir := map[string]testbed.Direction{
		"a": testbed.DirDown, "b": testbed.DirBidir, "c": testbed.DirUp,
	}[panel]
	scenarios := []string{"long-few", "long-many", "short-few", "short-many"}
	var rows []string
	for _, half := range []string{"uplink", "downlink"} {
		for _, s := range scenarios {
			rows = append(rows, half+"/"+s)
		}
	}
	g := NewGrid(fmt.Sprintf("Figure 4%s: mean queueing delay (ms), %s workload", panel, dir),
		rows, bufferCols(accessNet.buffers))
	var jobs []cellJob
	for _, buf := range accessNet.buffers {
		col := fmt.Sprintf("%d", buf)
		for _, s := range scenarios {
			jobs = append(jobs, cellJob{cellTask(o, accessNet, s, dir, buf, variant{bufUp: buf}, backgroundFG), s, col})
		}
	}
	err := s.runCells(ctx, jobs, func(row, col string, v any) {
		m := v.(bgMetrics)
		g.Set("uplink/"+row, col, Cell{
			Value: m.DelayUpMs,
			Class: qoe.ClassifyDelay(msToDuration(m.DelayUpMs)).String(),
		})
		g.Set("downlink/"+row, col, Cell{
			Value: m.DelayDownMs,
			Class: qoe.ClassifyDelay(msToDuration(m.DelayDownMs)).String(),
		})
	})
	return &Result{ID: "fig4" + panel, Grids: []*Grid{g}}, err
}

// fig5 regenerates the Figure 5 utilization boxplots: bidirectional
// long workload (8 uplink, 64 downlink flows) across buffer sizes.
// Its cells are the same background runs as fig4b's long-many column,
// so a full-suite run pays for them once.
func fig5(ctx context.Context, s *Session, o Options) (*Result, error) {
	cols := bufferCols(accessNet.buffers)
	rows := []string{
		"downlink median", "downlink q1", "downlink q3", "downlink min", "downlink max",
		"uplink median", "uplink q1", "uplink q3", "uplink min", "uplink max",
	}
	g := NewGrid("Figure 5: link utilization (%) under bidirectional long-many workload", rows, cols)
	var jobs []cellJob
	for bi, buf := range accessNet.buffers {
		jobs = append(jobs, cellJob{cellTask(o, accessNet, "long-many", testbed.DirBidir, buf, variant{bufUp: buf}, backgroundFG), "", cols[bi]})
	}
	err := s.runCells(ctx, jobs, func(_, col string, v any) {
		m := v.(bgMetrics)
		set := func(prefix string, b stats.Boxplot) {
			g.Set(prefix+" median", col, Cell{Value: b.Median})
			g.Set(prefix+" q1", col, Cell{Value: b.Q1})
			g.Set(prefix+" q3", col, Cell{Value: b.Q3})
			g.Set(prefix+" min", col, Cell{Value: b.Min})
			g.Set(prefix+" max", col, Cell{Value: b.Max})
		}
		set("downlink", m.DownBox)
		set("uplink", m.UpBox)
	})
	return &Result{ID: "fig5", Grids: []*Grid{g}}, err
}
