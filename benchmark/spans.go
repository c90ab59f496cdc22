package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed interval of a traced run: a layer boundary the
// benchmark crossed (a Session call, an HTTP request) or a phase a
// traced cell reported. Times are nanoseconds since the recorder
// started; Parent is the ID of the span that caused this one (0 for
// the root).
type span struct {
	ID     int               `json:"id"`
	Parent int               `json:"parent"`
	Name   string            `json:"name"`
	Start  int64             `json:"start_ns"`
	End    int64             `json:"end_ns"`
	SelfNS int64             `json:"self_ns"`
	Attrs  map[string]string `json:"attrs,omitempty"`
}

// recorder keeps the spans of one traced run in memory; write dumps
// them when the run ends. All spans come from the benchmark's own
// files — nothing inside the program records spans.
type recorder struct {
	mu    sync.Mutex
	t0    time.Time
	spans []*span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// since converts a wall-clock instant to recorder time.
func (r *recorder) since(t time.Time) int64 { return int64(t.Sub(r.t0)) }

// add records a finished interval under parent and returns its ID.
func (r *recorder) add(parent int, name string, start, end int64, attrs map[string]string) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans) + 1
	r.spans = append(r.spans, &span{ID: id, Parent: parent, Name: name, Start: start, End: end, Attrs: attrs})
	return id
}

// begin opens a span now; the returned func closes it.
func (r *recorder) begin(parent int, name string, attrs map[string]string) (id int, end func()) {
	id = r.add(parent, name, r.since(time.Now()), 0, attrs)
	return id, func() {
		now := r.since(time.Now())
		r.mu.Lock()
		r.spans[id-1].End = now
		r.mu.Unlock()
	}
}

// cell attaches one traced cell to the span that caused it, with its
// build, sim and score phases laid end to end before the instant the
// cell finished: the trace reports phase durations, not start times,
// and the phases run back to back on one worker.
func (r *recorder) cell(parent int, label string, end int64, buildMS, simMS, scoreMS float64) {
	ns := func(ms float64) int64 { return int64(ms * 1e6) }
	start := end - ns(buildMS) - ns(simMS) - ns(scoreMS)
	id := r.add(parent, "cell", start, end, map[string]string{"cell": label})
	r.add(id, "build", start, start+ns(buildMS), nil)
	r.add(id, "sim", start+ns(buildMS), end-ns(scoreMS), nil)
	r.add(id, "score", end-ns(scoreMS), end, nil)
}

// finish computes every span's self time and returns the spans.
func (r *recorder) finish() []*span {
	r.mu.Lock()
	defer r.mu.Unlock()
	children := map[int][][2]int64{}
	for _, s := range r.spans {
		children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
	}
	for _, s := range r.spans {
		s.SelfNS = selfTime(s.Start, s.End, children[s.ID])
	}
	return r.spans
}

// selfTime is a span's duration minus the part of [start, end) its
// children cover. Children may overlap one another (cells on parallel
// workers) and may stick out of the parent (a cell's reconstructed
// start); covered time is the union of the children clipped to the
// parent, so neither is counted twice or against the parent.
func selfTime(start, end int64, kids [][2]int64) int64 {
	sort.Slice(kids, func(i, j int) bool { return kids[i][0] < kids[j][0] })
	var covered int64
	at := start
	for _, k := range kids {
		lo, hi := k[0], k[1]
		if lo < at {
			lo = at
		}
		if hi > end {
			hi = end
		}
		if hi > lo {
			covered += hi - lo
			at = hi
		}
	}
	return end - start - covered
}

// selfByName sums self time per span name, in seconds.
func selfByName(spans []*span) map[string]float64 {
	out := map[string]float64{}
	for _, s := range spans {
		out[s.Name] += float64(s.SelfNS) / 1e9
	}
	return out
}

// writeSpans dumps a finished run's spans as one JSON document.
func writeSpans(path, workload string, spans []*span) error {
	doc := struct {
		Workload string             `json:"workload"`
		SelfS    map[string]float64 `json:"self_s_by_name"`
		Spans    []*span            `json:"spans"`
	}{workload, selfByName(spans), spans}
	data, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
