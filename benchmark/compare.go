package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"text/tabwriter"
)

// metricSpec is one metric entry of BENCHMARK.json.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// manifest is BENCHMARK.json, the record of what this benchmark
// measures and by how much each end-to-end metric may worsen.
type manifest struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

func loadManifest(root string) (*manifest, error) {
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var m manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &m, nil
}

// worseBy is how much worse b is than a as a share of a, signed so
// that positive means worse in the metric's own direction.
func (s metricSpec) worseBy(a, b float64) float64 {
	if a == 0 {
		return 0
	}
	if s.Better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

// verdict applies the choosing-metrics guide's rule to the runs of
// one (metric, workload) on two sides. The runs are paired: run i of
// the change against run i of the parent, the two taken minutes apart,
// so that what the host did in between falls out of the comparison;
// both sides have the same number of runs. A gain is claimed only when
// the change wins at least nine tenths of the pairs (ties count for
// neither) and the medians differ by more than the parent's own
// interquartile spread. A regression is the change's median worse
// than the parent's by more than the bound. Where the parent's spread
// is wider than the bound the runs cannot resolve a difference of
// that size: it is unresolved, unless every run of one side beats
// every run of the other.
func verdict(s metricSpec, change, parent []float64) (v string, winShare float64) {
	wins := 0
	for i, c := range change {
		if s.worseBy(parent[i], c) < 0 {
			wins++
		}
	}
	winShare = ratio(float64(wins), float64(len(change)))
	worse := s.worseBy(median(parent), median(change))
	noise := spread(parent)
	switch {
	case s.allBetter(change, parent):
		return "improved", winShare
	case s.allBetter(parent, change) && worse > s.Bound:
		return "regressed", winShare
	case noise > s.Bound:
		return "unresolved", winShare
	case worse > s.Bound:
		return "regressed", winShare
	case winShare >= 0.9 && -worse > noise:
		return "improved", winShare
	}
	return "unchanged", winShare
}

// allBetter reports whether every run of a reads better than every
// run of b.
func (s metricSpec) allBetter(a, b []float64) bool {
	for _, x := range a {
		for _, y := range b {
			if s.worseBy(y, x) >= 0 {
				return false
			}
		}
	}
	return len(a) > 0 && len(b) > 0
}

// loadRuns reads result files and lists the untraced runs of each
// workload in the order given, which is the order they are paired in.
func loadRuns(files []string) (map[string][]*result, error) {
	out := map[string][]*result{}
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		var results []*result
		if err := json.Unmarshal(data, &results); err != nil {
			return nil, fmt.Errorf("%s: %w", f, err)
		}
		for _, r := range results {
			if !r.Traced {
				out[r.Workload] = append(out[r.Workload], r)
			}
		}
	}
	return out, nil
}

// values lists one metric over runs; ok is false if a run lacks it.
func values(runs []*result, name string) (vs []float64, ok bool) {
	for _, r := range runs {
		m, has := r.Metrics[name]
		if !has {
			return nil, false
		}
		vs = append(vs, m.Value)
	}
	return vs, true
}

func failures(runs []*result) (failed, attempted int) {
	for _, r := range runs {
		failed, attempted = failed+r.Failed, attempted+r.Attempted
	}
	return failed, attempted
}

// printComparison writes one row per (workload, end-to-end metric)
// and one for the workload's failures, and reports whether anything
// regressed. A failed operation misses any limit, so a change that
// fails more often than its parent has regressed on fail_ratio (whose
// bound is 0) and is credited with no gain on that workload, whatever
// its timings say.
func printComparison(out io.Writer, m *manifest, change, parent map[string][]*result) (regressed bool, err error) {
	names := make([]string, 0, len(parent))
	for w := range parent {
		if len(change[w]) != len(parent[w]) {
			return false, fmt.Errorf("%s: %d runs of the change against %d of the parent; runs are compared in pairs", w, len(change[w]), len(parent[w]))
		}
		names = append(names, w)
	}
	sort.Strings(names)
	tw := tabwriter.NewWriter(out, 0, 8, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tunit\tparent median [q1, q3] (n)\tchange median [q1, q3] (n)\tworse by\tbound\twins\tverdict")
	for _, w := range names {
		pf, pa := failures(parent[w])
		cf, ca := failures(change[w])
		moreFailures := ratio(float64(cf), float64(ca)) > ratio(float64(pf), float64(pa))
		for _, s := range m.EndToEnd {
			p, pok := values(parent[w], s.Name)
			c, cok := values(change[w], s.Name)
			if !pok || !cok {
				continue
			}
			v, wins := verdict(s, c, p)
			if v == "improved" && moreFailures {
				v = "unresolved"
			}
			regressed = regressed || v == "regressed"
			pq1, pq3 := quartiles(p)
			cq1, cq3 := quartiles(c)
			fmt.Fprintf(tw, "%s\t%s\t%s\t%.4g [%.4g, %.4g] (%d)\t%.4g [%.4g, %.4g] (%d)\t%+.1f%%\t%.0f%%\t%.0f%%\t%s\n",
				w, s.Name, s.Unit, median(p), pq1, pq3, len(p), median(c), cq1, cq3, len(c),
				100*s.worseBy(median(p), median(c)), 100*s.Bound, 100*wins, v)
		}
		v := "unchanged"
		if moreFailures {
			v, regressed = "regressed", true
		}
		fmt.Fprintf(tw, "%s\tfail_ratio\tratio\t%d of %d\t%d of %d\t\t0%%\t\t%s\n", w, pf, pa, cf, ca, v)
	}
	tw.Flush()
	return regressed, nil
}

func runCompare(root string, changeFiles, parentFiles []string) int {
	if len(changeFiles) == 0 || len(parentFiles) == 0 {
		fmt.Fprintln(os.Stderr, "benchmark: -compare and -against each need at least one result file")
		return 2
	}
	m, err := loadManifest(root)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	change, err := loadRuns(changeFiles)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	parent, err := loadRuns(parentFiles)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	regressed, err := printComparison(os.Stdout, m, change, parent)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	if regressed {
		return 1
	}
	return 0
}

// runSelfcheck runs two complete sets of the same code back to back
// and holds their difference against each metric's bound: the
// benchmark checking its own noise floor. Exit status 1 on a breach.
func runSelfcheck(ctx context.Context, todo []workload, cfg runConfig) int {
	m, err := loadManifest(cfg.root)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	first, code := runSet(ctx, todo, cfg)
	if code != 0 {
		return code
	}
	second, code := runSet(ctx, todo, cfg)
	if code != 0 {
		return code
	}
	tw := tabwriter.NewWriter(os.Stdout, 0, 8, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tfirst\tsecond\tunit\tdifference\tbound\t")
	breach := false
	for i, a := range first {
		b := second[i]
		for _, s := range m.EndToEnd {
			va, vb := a.Metrics[s.Name].Value, b.Metrics[s.Name].Value
			diff := s.worseBy(va, vb)
			if d := s.worseBy(vb, va); d > diff {
				diff = d
			}
			mark := ""
			if diff > s.Bound {
				mark, breach = "BREACH", true
			}
			fmt.Fprintf(tw, "%s\t%s\t%.5g\t%.5g\t%s\t%.1f%%\t%.0f%%\t%s\n", a.Workload, s.Name, va, vb, s.Unit, 100*diff, 100*s.Bound, mark)
		}
	}
	tw.Flush()
	if breach {
		return 1
	}
	return 0
}
