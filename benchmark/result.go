package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
)

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is everything one run of one workload produced. The last
// line the benchmark prints is the contract view of it (see line);
// -out keeps the whole record, including the per-round values behind
// each median.
type result struct {
	Workload  string            `json:"workload"`
	Seed      uint64            `json:"seed"`
	Seconds   float64           `json:"seconds"`
	Traced    bool              `json:"traced"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	FailRatio float64           `json:"fail_ratio"`
	Metrics   map[string]metric `json:"metrics"`
	// Rounds keeps the individual values a reported median was taken
	// over, keyed by metric name.
	Rounds map[string][]float64 `json:"rounds,omitempty"`
	// Digests are the SHA-256 sums the correctness gate compared (or
	// would pin, for a seed expected.json does not cover).
	Digests map[string]string `json:"digests,omitempty"`
	Notes   []string          `json:"notes,omitempty"`
}

func newResult(workload string, cfg runConfig) *result {
	return &result{
		Workload: workload, Seed: cfg.seed, Seconds: cfg.seconds.Seconds(), Traced: cfg.trace,
		Metrics: map[string]metric{}, Rounds: map[string][]float64{}, Digests: map[string]string{},
	}
}

// set records a metric. Failed requests enter latency samples as
// +Inf; JSON has no infinity, so such a value is written as the
// largest float — still far beyond any limit.
func (r *result) set(name string, v float64, unit string) {
	if math.IsInf(v, 0) || math.IsNaN(v) {
		v = math.MaxFloat64
	}
	r.Metrics[name] = metric{v, unit}
}

// setMedian records the median of per-round values and keeps them.
func (r *result) setMedian(name string, vs []float64, unit string) {
	r.set(name, median(vs), unit)
	r.Rounds[name] = vs
}

// close folds the tally into the result.
func (r *result) close(t *tally) {
	r.Attempted, r.Failed = t.Attempted, t.Failed
	r.Notes = append(r.Notes, t.Notes...)
	if r.Attempted < 1 {
		r.Attempted, r.Failed = 1, 1
		r.Notes = append(r.Notes, "nothing was attempted")
	}
	r.FailRatio = float64(r.Failed) / float64(r.Attempted)
	r.Correct = r.Failed == 0
}

// print writes the metrics by name with their units, then any notes.
func (r *result) print(w io.Writer) {
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "# %s seed=%d traced=%v\n", r.Workload, r.Seed, r.Traced)
	for _, n := range names {
		m := r.Metrics[n]
		fmt.Fprintf(w, "%-14s %-28s %14.6g %-8s", r.Workload, n, m.Value, m.Unit)
		if rs := r.Rounds[n]; len(rs) > 1 {
			fmt.Fprintf(w, " rounds=%.4g", rs)
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "%-14s %-28s %14.6g %-8s (%d failed of %d attempted)\n",
		r.Workload, "fail_ratio", r.FailRatio, "ratio", r.Failed, r.Attempted)
	for _, n := range r.Notes {
		fmt.Fprintf(w, "%-14s note: %s\n", r.Workload, n)
	}
}

// line is the one JSON object the driver reads from the last line of
// standard output.
func (r *result) line() string {
	out, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, r.Metrics})
	if err != nil {
		return `{"correct":false,"attempted":1,"failed":1,"metrics":{}}`
	}
	return string(out)
}
