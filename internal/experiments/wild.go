package experiments

import (
	"context"
	"fmt"

	"bufferqoe/internal/cdn"
	"bufferqoe/internal/engine"
	"bufferqoe/internal/stats"
)

// wild binds a Figure 1 panel to the synthetic CDN analysis, which it
// runs (or fetches from the cell cache): the three panels share one
// population per (seed, flows) pair.
func wild(panel func(*cdn.Analysis) *Result) runner {
	return func(ctx context.Context, s *Session, o Options) (*Result, error) {
		vals, err := s.eng.RunBatch(ctx, []engine.Task{wildTask(o)})
		if err != nil {
			return nil, err
		}
		return panel(vals[0].(*cdn.Analysis)), nil
	}
}

// fig1a regenerates the min/avg/max sRTT PDFs.
func fig1a(a *cdn.Analysis) *Result {
	g := NewGrid("Figure 1a: PDF of log sRTT (sparklines over 1ms..10s)",
		[]string{"min RTT", "avg RTT", "max RTT"},
		[]string{"pdf", "mode (ms)"})
	g.Set("min RTT", "pdf", Cell{Text: stats.SparklinePDF(a.MinPDF.PDF())})
	g.Set("avg RTT", "pdf", Cell{Text: stats.SparklinePDF(a.AvgPDF.PDF())})
	g.Set("max RTT", "pdf", Cell{Text: stats.SparklinePDF(a.MaxPDF.PDF())})
	g.Set("min RTT", "mode (ms)", Cell{Value: a.MinPDF.Mode()})
	g.Set("avg RTT", "mode (ms)", Cell{Value: a.AvgPDF.Mode()})
	g.Set("max RTT", "mode (ms)", Cell{Value: a.MaxPDF.Mode()})
	return &Result{
		ID:    "fig1a",
		Grids: []*Grid{g},
		Notes: []string{fmt.Sprintf("%d flows analyzed (>=10 samples)", a.FlowsAnalyzed)},
	}
}

// fig1b regenerates the min-vs-max 2D histogram.
func fig1b(a *cdn.Analysis) *Result {
	g := NewGrid("Figure 1b: min vs max RTT per flow",
		[]string{"frac near diagonal (+-1 bin)"}, []string{"value"})
	g.Set("frac near diagonal (+-1 bin)", "value", Cell{Value: a.MinMax.FracOnDiagonal(1)})
	return &Result{
		ID:    "fig1b",
		Grids: []*Grid{g},
		Notes: []string{"density plot:\n" + a.MinMax.RenderASCII()},
	}
}

// fig1c regenerates the estimated queueing-delay PDFs by access
// technology, plus the headline marginals.
func fig1c(a *cdn.Analysis) *Result {
	rows := []string{"FTTH", "Cable", "ADSL", "all"}
	g := NewGrid("Figure 1c: PDF of estimated queueing delay (max-min sRTT)",
		rows, []string{"pdf", "n"})
	for _, r := range rows {
		h := a.QDelay[r]
		g.Set(r, "pdf", Cell{Text: stats.SparklinePDF(h.PDF())})
		g.Set(r, "n", Cell{Value: float64(h.N())})
	}
	m := NewGrid("Section 3 marginals (paper: 80% / 2.8% / 1%)",
		[]string{"delay variation"}, []string{"<100ms", ">500ms", ">1000ms"})
	m.Set("delay variation", "<100ms", Cell{Value: 100 * a.FracBelow100ms})
	m.Set("delay variation", ">500ms", Cell{Value: 100 * a.FracAbove500ms})
	m.Set("delay variation", ">1000ms", Cell{Value: 100 * a.FracAbove1000ms})
	p := NewGrid("Proximity (min RTT <= 100ms; paper: 95% / 99.9%)",
		[]string{"near flows"}, []string{"<100ms", "<1000ms"})
	p.Set("near flows", "<100ms", Cell{Value: 100 * a.NearFracBelow100})
	p.Set("near flows", "<1000ms", Cell{Value: 100 * a.NearFracBelow1000})
	return &Result{ID: "fig1c", Grids: []*Grid{g, m, p}}
}
