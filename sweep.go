package bufferqoe

import (
	"context"
	"encoding/json"
	"fmt"
	"slices"
	"strconv"
	"strings"
	"sync"

	"bufferqoe/internal/experiments"
	"bufferqoe/internal/jsonenc"
	"bufferqoe/internal/qoe"
	"bufferqoe/internal/stats"
)

// Sweep fans a scenario x buffer x probe grid through the cell
// engine: every scenario is measured by every probe at every buffer
// size. Cells run in parallel across the session's worker pool,
// paired by common random numbers (one workload realization per
// scenario, replayed at every buffer size and link), and answered
// from the session cache when a configuration repeats across calls.
type Sweep struct {
	// Scenarios are the network-plus-workload configurations to
	// sweep. Labels (Scenario.Label) must be unique within a sweep.
	Scenarios []Scenario
	// Buffers are the bottleneck buffer sizes in packets (the
	// downlink buffer on access-shaped networks; BufferSizes returns
	// the paper's values).
	Buffers []int
	// Probes are the foreground measurements to take.
	Probes []Probe
}

// SweepCell is one measured cell of a sweep grid.
type SweepCell struct {
	// Scenario and Probe are the labels of the cell's coordinates;
	// Buffer is the bottleneck buffer in packets.
	Scenario string `json:"scenario"`
	Probe    string `json:"probe"`
	Buffer   int    `json:"buffer"`
	// Metric names the native measurement in Value: "mos" (VoIP
	// listen MOS), "plt_s" (web page load time, seconds), or "ssim".
	Metric string  `json:"metric"`
	Value  float64 `json:"value"`
	// MOS is the value mapped to the 1..5 opinion scale (G.107 for
	// VoIP, G.1030 for web, the SSIM regression for video), and
	// Rating its verbal category.
	MOS    float64 `json:"mos"`
	Rating string  `json:"rating"`
	// TalkMOS / TalkRating score the user's own speaking direction;
	// populated for VoIP on access-shaped networks only.
	TalkMOS    float64 `json:"talk_mos,omitempty"`
	TalkRating string  `json:"talk_rating,omitempty"`
}

// Grid is a sweep's structured result: the three axes plus one
// SweepCell per (scenario, probe, buffer) combination, in
// scenario-major, then probe, then buffer order. A Grid is immutable
// once returned; Cell lookups may be issued concurrently.
type Grid struct {
	Scenarios []string    `json:"scenarios"`
	Probes    []string    `json:"probes"`
	Buffers   []int       `json:"buffers"`
	Cells     []SweepCell `json:"cells"`

	// Axis label -> index maps, built lazily on the first Cell call so
	// repeated lookups over large grids are O(1) instead of three
	// linear scans. Grids are immutable once returned (including after
	// a JSON round trip), so the index never goes stale.
	idxOnce sync.Once
	siIdx   map[string]int
	piIdx   map[string]int
	biIdx   map[int]int
}

func (g *Grid) buildIndex() {
	g.siIdx = make(map[string]int, len(g.Scenarios))
	for i, s := range g.Scenarios {
		g.siIdx[s] = i
	}
	g.piIdx = make(map[string]int, len(g.Probes))
	for i, p := range g.Probes {
		g.piIdx[p] = i
	}
	g.biIdx = make(map[int]int, len(g.Buffers))
	for i, b := range g.Buffers {
		g.biIdx[b] = i
	}
}

// Cell returns the cell at the given coordinates.
func (g *Grid) Cell(scenario, probe string, buffer int) (SweepCell, bool) {
	g.idxOnce.Do(g.buildIndex)
	si, okS := g.siIdx[scenario]
	pi, okP := g.piIdx[probe]
	bi, okB := g.biIdx[buffer]
	if !okS || !okP || !okB {
		return SweepCell{}, false
	}
	return g.Cells[(si*len(g.Probes)+pi)*len(g.Buffers)+bi], true
}

// Text renders the grid as aligned tables, one per scenario: probes
// as rows, buffer sizes as columns, each cell showing the native
// value with its rating.
func (g *Grid) Text() string {
	var b strings.Builder
	for si, sc := range g.Scenarios {
		header := []string{""}
		for _, buf := range g.Buffers {
			header = append(header, fmt.Sprintf("%d", buf))
		}
		tb := stats.NewTable(header...)
		for pi, p := range g.Probes {
			row := []string{p}
			for bi := range g.Buffers {
				c := g.Cells[(si*len(g.Probes)+pi)*len(g.Buffers)+bi]
				row = append(row, c.render())
			}
			tb.AddRow(row...)
		}
		fmt.Fprintf(&b, "== %s ==\n%s", sc, tb.String())
	}
	return b.String()
}

func (c SweepCell) render() string {
	switch c.Metric {
	case "plt_s":
		return fmt.Sprintf("%.2fs (%s)", c.Value, c.Rating)
	case "ssim":
		return fmt.Sprintf("%.3f (%s)", c.Value, c.Rating)
	default:
		return fmt.Sprintf("%.2f (%s)", c.Value, c.Rating)
	}
}

// JSON renders the grid as indented machine-readable JSON, byte for
// byte what json.MarshalIndent(g, "", "  ") writes; see AppendJSON.
func (g *Grid) JSON() ([]byte, error) { return g.AppendJSON(nil, "") }

// AppendJSON appends the grid to b as json.MarshalIndent(g, prefix,
// "  ") renders it, in one pass rather than a marshal and a re-scan to
// indent, growing b at most once (see growJSON). A server nesting the
// grid one level deep in an indented reply passes the prefix "  ". A
// grid holding NaN or ±Inf, which JSON cannot represent, appends
// nothing and returns the error MarshalIndent returns.
func (g *Grid) AppendJSON(b []byte, prefix string) ([]byte, error) {
	for _, c := range g.Cells {
		if !c.finite() {
			_, err := json.MarshalIndent(g, prefix, "  ")
			return b, err
		}
	}
	b = growJSON(b, g.jsonSize(prefix))
	in := jsonenc.NewIndent(prefix)
	line, next := in.Line(1), in.Next(1)
	b = append(b, '{')
	b = jsonenc.AppendKey(b, line, `"scenarios": `)
	b = jsonenc.AppendArray(b, in, 1, g.Scenarios, jsonenc.StringElem)
	b = jsonenc.AppendKey(b, next, `"probes": `)
	b = jsonenc.AppendArray(b, in, 1, g.Probes, jsonenc.StringElem)
	b = jsonenc.AppendKey(b, next, `"buffers": `)
	b = jsonenc.AppendArray(b, in, 1, g.Buffers, jsonenc.IntElem)
	b = jsonenc.AppendKey(b, next, `"cells": `)
	b = jsonenc.AppendArray(b, in, 1, g.Cells, appendJSONCell)
	b = append(b, in.Line(0)...)
	return append(b, '}'), nil
}

// jsonSize bounds the bytes AppendJSON appends at prefix, unless a
// label needs escaping: the braces, keys and indentation of the four
// axes, each label on a line of its own, and the cells.
func (g *Grid) jsonSize(prefix string) int {
	p := len(prefix)
	n := 80 + 9*p + len(g.Buffers)*(26+p) + cellsJSONSize(g.Cells, prefix)
	for _, axis := range [...][]string{g.Scenarios, g.Probes} {
		for _, l := range axis {
			n += 8 + p + len(l)
		}
	}
	return n
}

// cellsJSONSize bounds the bytes cells take in an indented document
// at prefix, unless a label needs escaping: per cell, 280 bytes of
// keys, quotes, indentation and numbers at their widest, and its labels.
func cellsJSONSize(cells []SweepCell, prefix string) (n int) {
	for _, c := range cells {
		n += 280 + 11*len(prefix) + len(c.Scenario) + len(c.Probe) + len(c.Metric) + len(c.Rating) + len(c.TalkRating)
	}
	return n
}

// growJSON grows b once, if it cannot take n more bytes, by n and the
// room it had to spare: the one-pass writers reserve what they will
// append, and a caller that sized b for what it writes around them
// keeps that room.
func growJSON(b []byte, n int) []byte {
	if spare := cap(b) - len(b); spare < n {
		b = slices.Grow(b, n+spare)
	}
	return b
}

// finite reports whether JSON can represent every float of the cell.
func (c SweepCell) finite() bool {
	return jsonenc.Finite(c.Value) && jsonenc.Finite(c.MOS) && jsonenc.Finite(c.TalkMOS)
}

// appendJSONCell writes a finite cell as MarshalIndent does at the
// given depth, omitting the empty talk fields.
func appendJSONCell(b []byte, in jsonenc.Indent, depth int, c SweepCell) []byte {
	line, next := in.Line(depth+1), in.Next(depth+1)
	b = append(b, '{')
	b = jsonenc.AppendKey(b, line, `"scenario": `)
	b = jsonenc.AppendString(b, c.Scenario)
	b = jsonenc.AppendKey(b, next, `"probe": `)
	b = jsonenc.AppendString(b, c.Probe)
	b = jsonenc.AppendKey(b, next, `"buffer": `)
	b = strconv.AppendInt(b, int64(c.Buffer), 10)
	b = jsonenc.AppendKey(b, next, `"metric": `)
	b = jsonenc.AppendString(b, c.Metric)
	b = jsonenc.AppendKey(b, next, `"value": `)
	b = jsonenc.AppendFloat(b, c.Value)
	b = jsonenc.AppendKey(b, next, `"mos": `)
	b = jsonenc.AppendFloat(b, c.MOS)
	b = jsonenc.AppendKey(b, next, `"rating": `)
	b = jsonenc.AppendString(b, c.Rating)
	if c.TalkMOS != 0 {
		b = jsonenc.AppendKey(b, next, `"talk_mos": `)
		b = jsonenc.AppendFloat(b, c.TalkMOS)
	}
	if c.TalkRating != "" {
		b = jsonenc.AppendKey(b, next, `"talk_rating": `)
		b = jsonenc.AppendString(b, c.TalkRating)
	}
	b = append(b, in.Line(depth)...)
	return append(b, '}')
}

// Sweep runs the full scenario x buffer x probe grid on the session
// and returns the structured results. Every combination is validated
// before any cell is simulated, so an invalid corner fails the call
// instead of crashing a worker mid-run. Sweep is SweepCtx without a
// deadline.
func (s *Session) Sweep(sw Sweep, o Options) (*Grid, error) {
	return s.SweepCtx(context.Background(), sw, o)
}

// sweepCell scores one raw probe value of a cell on network n on the
// opinion scale.
func sweepCell(scLabel, pLabel string, buffer int, n Network, m Media, v experiments.ProbeValue) SweepCell {
	out := SweepCell{Scenario: scLabel, Probe: pLabel, Buffer: buffer}
	switch m {
	case VoIP:
		out.Metric = "mos"
		out.Value = v.ListenMOS
		out.MOS = v.ListenMOS
		out.Rating = string(qoe.VoIPSatisfaction(v.ListenMOS))
		if n != Backbone {
			out.TalkMOS = v.TalkMOS
			out.TalkRating = string(qoe.VoIPSatisfaction(v.TalkMOS))
		}
	case Web:
		model := qoe.AccessWebModel()
		if n == Backbone {
			model = qoe.BackboneWebModel()
		}
		out.Metric = "plt_s"
		out.Value = v.PLT.Seconds()
		out.MOS = model.MOS(v.PLT)
		out.Rating = string(qoe.Rate(out.MOS))
	case Video:
		out.Metric = "ssim"
		out.Value = v.SSIM
		out.MOS = qoe.SSIMToMOS(v.SSIM)
		out.Rating = string(qoe.Rate(out.MOS))
	}
	return out
}
