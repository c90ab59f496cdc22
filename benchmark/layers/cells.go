package layers

import (
	"context"
	"fmt"
	"sort"
	"time"

	"bufferqoe"
)

// cellShape is one kind of cell the cold workloads are made of.
type cellShape struct {
	name     string
	scenario bufferqoe.Scenario
	probe    bufferqoe.Probe
	// buffers[0] warms the worker; the rest are timed. They sit close
	// together so the timed cells cost about the same.
	buffers []int
}

func cellShapes() []cellShape {
	access := bufferqoe.Scenario{Workload: "short-few", Direction: bufferqoe.Down}
	wifi := bufferqoe.WifiLink(4)
	near64 := []int{60, 62, 64, 66}
	return []cellShape{
		{"voip", access, bufferqoe.Probe{Media: bufferqoe.VoIP}, near64},
		{"web", access, bufferqoe.Probe{Media: bufferqoe.Web}, near64},
		{"video", access, bufferqoe.Probe{Media: bufferqoe.Video, Profile: "SD"}, near64},
		{"backbone", bufferqoe.Scenario{Network: bufferqoe.Backbone, Workload: "short-medium"},
			bufferqoe.Probe{Media: bufferqoe.VoIP}, []int{740, 749}},
		{"wifi_bbr", bufferqoe.Scenario{Link: &wifi, Workload: "long-few", Direction: bufferqoe.Down, CC: bufferqoe.BBR},
			bufferqoe.Probe{Media: bufferqoe.VoIP}, near64},
	}
}

// cellProbes times whole cells of each shape through one-cell
// Session.Sweep calls on a one-worker session whose carcass, speech
// library and video source the first (untimed) cell has built: the
// warm-worker cost every cell after a worker's first pays. Each timed
// cell has its own buffer size, so none is answered from the cache.
func cellProbes(s *prober) error {
	for _, sh := range cellShapes() {
		sess := bufferqoe.NewSession()
		sess.SetParallelism(1)
		one := func(buffer int) error {
			_, err := sess.Sweep(bufferqoe.Sweep{
				Scenarios: []bufferqoe.Scenario{sh.scenario},
				Buffers:   []int{buffer},
				Probes:    []bufferqoe.Probe{sh.probe},
			}, s.cellOpts)
			return err
		}
		if err := one(sh.buffers[0]); err != nil {
			return fmt.Errorf("cell probe %s: %w", sh.name, err)
		}
		var ms, allocs, kb []float64
		for _, b := range sh.buffers[1:] {
			var err error
			t0 := time.Now()
			m, bytes := heapDelta(func() { err = one(b) })
			if err != nil {
				return fmt.Errorf("cell probe %s: %w", sh.name, err)
			}
			ms = append(ms, float64(time.Since(t0))/1e6)
			allocs = append(allocs, m)
			kb = append(kb, bytes/1024)
		}
		if sess.Stats().Misses != uint64(len(sh.buffers)) {
			return fmt.Errorf("cell probe %s: a timed cell was answered from the cache", sh.name)
		}
		s.put("cell."+sh.name+"_ms", mid(ms), "ms")
		s.put("cell."+sh.name+"_allocs", mid(allocs), "allocs")
		s.put("cell."+sh.name+"_kb", mid(kb), "KB")
	}
	return nil
}

func mid(xs []float64) float64 {
	sort.Float64s(xs)
	return xs[len(xs)/2]
}

// facadeProbes times the warm path of the public API on the grid
// shape the service's larger request carries (two workloads x six
// buffers x three probes): a Sweep answered wholly from the session
// cache, a Recommend whose every evaluation is cached, and the
// grid's JSON rendering.
func facadeProbes(s *prober) error {
	sess := bufferqoe.NewSession()
	sw := bufferqoe.Sweep{
		Scenarios: []bufferqoe.Scenario{{Workload: "noBG"}, {Workload: "short-few", Direction: bufferqoe.Up}},
		Buffers:   []int{8, 16, 32, 64, 128, 256},
		Probes: []bufferqoe.Probe{
			{Media: bufferqoe.VoIP}, {Media: bufferqoe.Web}, {Media: bufferqoe.Video, Profile: "SD"},
		},
	}
	grid, err := sess.Sweep(sw, s.cellOpts)
	if err != nil {
		return fmt.Errorf("facade probe: %w", err)
	}
	cells := float64(len(grid.Cells))
	s.put("facade.sweep_warm_us_per_cell", s.perOp(func() { grid, err = sess.Sweep(sw, s.cellOpts) })/1e3/cells, "us")
	if err != nil {
		return fmt.Errorf("facade probe: %w", err)
	}
	spec := bufferqoe.RecommendSpec{Scenario: sw.Scenarios[1], Probes: sw.Probes, Buffers: sw.Buffers}
	s.put("facade.recommend_warm_us", s.perOp(func() { _, err = sess.Recommend(context.Background(), spec, s.cellOpts) })/1e3, "us")
	if err != nil {
		return fmt.Errorf("facade probe: %w", err)
	}
	s.put("facade.grid_json_us", s.perOp(func() { _, err = grid.JSON() })/1e3, "us")
	if err != nil {
		return fmt.Errorf("facade probe: %w", err)
	}
	if got := sess.Stats().Misses; got != uint64(cells) {
		return fmt.Errorf("facade probe: %d cells simulated, want the %v of the first sweep", got, cells)
	}
	return nil
}
