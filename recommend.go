package bufferqoe

import (
	"context"
	"encoding/json"
	"fmt"
	"sort"
	"strconv"
	"time"

	"bufferqoe/internal/experiments"
	"bufferqoe/internal/jsonenc"
	"bufferqoe/internal/sizing"
	"bufferqoe/internal/testbed"
)

// Target selects what Recommend optimizes over the buffer axis.
type Target string

const (
	// MinBufferMeetingMOS finds the smallest candidate buffer at which
	// every probe scores at least RecommendSpec.Threshold — the
	// paper's sizing question ("how small can the buffer be before
	// users notice?") asked directly. The search assumes the
	// "all probes satisfied" predicate is monotone in buffer size
	// across the candidate axis (loss-dominated regimes: bigger
	// buffers stop hurting once loss is gone); when nothing on the
	// axis satisfies it, the recommendation falls back to the best
	// aggregate buffer among those evaluated and reports Met=false.
	MinBufferMeetingMOS Target = "min-buffer-meeting-mos"
	// MaxAggregateMOS finds the candidate buffer with the highest mean
	// score across probes, assuming the aggregate is unimodal in
	// buffer size (QoE rises while buffers absorb loss, then falls as
	// queueing delay dominates — the bufferbloat tradeoff).
	MaxAggregateMOS Target = "max-aggregate-mos"
)

// RecommendSpec declares one buffer-sizing question: a scenario, the
// probes whose QoE constrains the answer, the candidate buffer axis,
// and the optimization target.
type RecommendSpec struct {
	// Scenario is the network-plus-workload under study.
	Scenario Scenario
	// Probes are the foreground measurements whose scores drive the
	// search. A VoIP probe's score is the worse of its two directions
	// (listen and, on access networks, talk).
	Probes []Probe
	// Buffers is the candidate axis in packets; Recommend sorts it
	// ascending. Empty means the paper's sweep for the scenario's
	// network bracketed with the link's BDP (Table 2's anchor points).
	Buffers []int
	// Target is the optimization goal; default MinBufferMeetingMOS.
	Target Target
	// Threshold is the per-probe MOS floor for MinBufferMeetingMOS and
	// the Met verdict (default 3.5 — the "all users satisfied" line of
	// the paper's rating scale).
	Threshold float64
	// Flows estimates the concurrent flow count for the paper-scheme
	// comparison (Stanford BDP/sqrt(n)); default 10 on access-shaped
	// networks, 750 on the backbone (the paper's workload scales).
	Flows int
}

// Recommendation is the outcome of a buffer search.
type Recommendation struct {
	// Buffer is the recommended bottleneck buffer in packets.
	Buffer int
	// Score is the aggregate (mean) probe score at Buffer.
	Score float64
	// Met reports whether every probe at Buffer scores at least the
	// spec's Threshold.
	Met bool
	// Cells are the per-probe measurements at Buffer, in probe order.
	Cells []SweepCell
	// BuffersTried lists the candidate buffers the search evaluated,
	// in evaluation order.
	BuffersTried []int
	// CellsEvaluated counts the cells the search submitted to the
	// engine (configurations already in the session cache are counted
	// but not re-simulated); GridCells is what the equivalent
	// exhaustive sweep would have submitted.
	CellsEvaluated, GridCells int
	// Scheme is the paper sizing scheme (Table 2) nearest the
	// recommended buffer for the scenario's link, for comparison with
	// the static rules the paper evaluates.
	Scheme Scheme
}

// AppendJSON appends the recommendation to b as
// json.MarshalIndent(r, prefix, "  ") renders it, in one pass (see
// Grid.AppendJSON), growing b at most once: its fields carry no tags,
// so the keys are the field names. A recommendation holding NaN or
// ±Inf appends nothing and returns the error MarshalIndent returns.
func (r *Recommendation) AppendJSON(b []byte, prefix string) ([]byte, error) {
	ok := jsonenc.Finite(r.Score)
	for _, c := range r.Cells {
		ok = ok && c.finite()
	}
	if !ok {
		_, err := json.MarshalIndent(r, prefix, "  ")
		return b, err
	}
	b = growJSON(b, r.jsonSize(prefix))
	in := jsonenc.NewIndent(prefix)
	line, next := in.Line(1), in.Next(1)
	b = append(b, '{')
	b = jsonenc.AppendKey(b, line, `"Buffer": `)
	b = strconv.AppendInt(b, int64(r.Buffer), 10)
	b = jsonenc.AppendKey(b, next, `"Score": `)
	b = jsonenc.AppendFloat(b, r.Score)
	b = jsonenc.AppendKey(b, next, `"Met": `)
	b = strconv.AppendBool(b, r.Met)
	b = jsonenc.AppendKey(b, next, `"Cells": `)
	b = jsonenc.AppendArray(b, in, 1, r.Cells, appendJSONCell)
	b = jsonenc.AppendKey(b, next, `"BuffersTried": `)
	b = jsonenc.AppendArray(b, in, 1, r.BuffersTried, jsonenc.IntElem)
	b = jsonenc.AppendKey(b, next, `"CellsEvaluated": `)
	b = strconv.AppendInt(b, int64(r.CellsEvaluated), 10)
	b = jsonenc.AppendKey(b, next, `"GridCells": `)
	b = strconv.AppendInt(b, int64(r.GridCells), 10)
	b = jsonenc.AppendKey(b, next, `"Scheme": `)
	b = append(b, '{')
	b = jsonenc.AppendKey(b, in.Line(2), `"Name": `)
	b = jsonenc.AppendString(b, r.Scheme.Name)
	b = jsonenc.AppendKey(b, in.Next(2), `"Packets": `)
	b = strconv.AppendInt(b, int64(r.Scheme.Packets), 10)
	b = jsonenc.AppendKey(b, in.Next(2), `"MaxDelay": `)
	b = strconv.AppendInt(b, int64(r.Scheme.MaxDelay), 10)
	b = append(b, line...)
	b = append(b, '}')
	b = append(b, in.Line(0)...)
	return append(b, '}'), nil
}

// jsonSize bounds the bytes AppendJSON appends at prefix, unless a
// label needs escaping: the fields, the scheme, the buffers tried and
// the cells (see Grid.jsonSize).
func (r *Recommendation) jsonSize(prefix string) int {
	p := len(prefix)
	return 340 + 15*p + len(r.Scheme.Name) + len(r.BuffersTried)*(26+p) + cellsJSONSize(r.Cells, prefix)
}

// evaluation is one candidate buffer's measured outcome.
type evaluation struct {
	cells []SweepCell
	score float64 // mean per-probe score
	ok    bool    // every probe >= threshold
}

// recommendSearch carries the state of one Recommend call.
type recommendSearch struct {
	s         *Session
	ctx       context.Context
	o         Options
	sc        compiledScenario
	probes    []Probe
	plabels   []string
	threshold float64
	bufs      []int

	evals map[int]*evaluation // candidate index -> outcome
	tried []int               // buffers in evaluation order
	done  int                 // cells completed, for OnProgress
	start time.Time           // search start, for Progress timing
}

// Recommend searches the buffer axis for the spec's target instead of
// sweeping it exhaustively: it brackets the candidate axis (the
// paper's sweep plus the link's BDP by default) and bisects —
// binary search for MinBufferMeetingMOS, ternary search for
// MaxAggregateMOS — evaluating only the buffers the search visits.
// Evaluations reuse the session's CRN-paired seeds and result cache,
// so a Recommend run followed by a Sweep over the same scenario
// re-simulates nothing the search already measured, and vice versa.
//
// Cancellation follows the streaming rules: a canceled ctx abandons
// queued cells, drains in-flight ones into the cache, and returns
// ErrCanceled. o.OnProgress, when set, is called per completed cell
// with Total equal to the full-grid upper bound GridCells — the
// search finishing well short of Total is the point.
func (s *Session) Recommend(ctx context.Context, spec RecommendSpec, o Options) (*Recommendation, error) {
	r := &recommendSearch{s: s, ctx: ctx, o: o, sc: spec.Scenario.compile(spec.Scenario.Label()), start: time.Now()}
	if len(spec.Probes) == 0 {
		return nil, fmt.Errorf("bufferqoe: a recommendation needs at least one probe")
	}
	seen := map[string]bool{}
	for _, p := range spec.Probes {
		l := p.Label()
		if seen[l] {
			return nil, fmt.Errorf("bufferqoe: duplicate probe %q", l)
		}
		seen[l] = true
		r.probes = append(r.probes, p)
		r.plabels = append(r.plabels, l)
	}
	// Validate the scenario x probe combinations before simulating.
	for _, p := range r.probes {
		if _, err := r.sc.spec(p, 1); err != nil {
			return nil, err
		}
	}
	r.threshold = spec.Threshold
	if r.threshold <= 0 {
		r.threshold = 3.5
	}

	bufs, err := candidateBuffers(spec)
	if err != nil {
		return nil, err
	}
	r.bufs = bufs
	r.evals = make(map[int]*evaluation, len(bufs))

	target := spec.Target
	if target == "" {
		target = MinBufferMeetingMOS
	}
	var best int
	switch target {
	case MinBufferMeetingMOS:
		best, err = r.searchMinBuffer()
	case MaxAggregateMOS:
		best, err = r.searchMaxAggregate()
	default:
		return nil, fmt.Errorf("bufferqoe: unknown recommend target %q", target)
	}
	if err != nil {
		return nil, err
	}

	ev := r.evals[best]
	out := &Recommendation{
		Buffer:         r.bufs[best],
		Score:          ev.score,
		Met:            ev.ok,
		Cells:          ev.cells,
		BuffersTried:   r.tried,
		CellsEvaluated: len(r.tried) * len(r.probes),
		GridCells:      len(r.bufs) * len(r.probes),
	}
	out.Scheme = nearestScheme(spec, out.Buffer)
	return out, nil
}

// Recommend searches on the default session; see Session.Recommend.
func Recommend(ctx context.Context, spec RecommendSpec, o Options) (*Recommendation, error) {
	return defaultSession.Recommend(ctx, spec, o)
}

// candidateBuffers resolves and validates the search axis.
func candidateBuffers(spec RecommendSpec) ([]int, error) {
	if len(spec.Buffers) == 0 {
		base := BufferSizes(spec.Scenario.Network)
		if spec.Scenario.Network == "" {
			base = BufferSizes(Access)
		}
		rate, rtt := scenarioLink(spec.Scenario)
		return sizing.Candidates(base, sizing.BDPPackets(rate, rtt)), nil
	}
	seen := map[int]bool{}
	for _, b := range spec.Buffers {
		if b <= 0 {
			return nil, fmt.Errorf("bufferqoe: buffer candidates must be positive, got %d", b)
		}
		if seen[b] {
			return nil, fmt.Errorf("bufferqoe: duplicate buffer candidate %d", b)
		}
		seen[b] = true
	}
	out := append([]int(nil), spec.Buffers...)
	sort.Ints(out)
	return out, nil
}

// scenarioLink returns the congested bottleneck rate and base RTT of
// the scenario's link, the inputs the paper's sizing schemes need.
func scenarioLink(sc Scenario) (rateBps float64, rtt time.Duration) {
	if sc.Network == Backbone {
		return testbed.BackboneRate, 2 * testbed.BackboneDelay
	}
	lp := testbed.LinkParams{}
	if sc.Link != nil {
		lp = sc.Link.internal()
	}
	lp = lp.WithDefaults()
	rateBps = lp.DownRate
	if sc.Direction == Up {
		rateBps = lp.UpRate
	}
	return rateBps, 2 * (lp.ClientDelay + lp.ServerDelay)
}

// nearestScheme finds the paper sizing scheme closest (by size ratio)
// to the recommended buffer on the scenario's link.
func nearestScheme(spec RecommendSpec, buffer int) Scheme {
	flows := spec.Flows
	if flows <= 0 {
		flows = 10
		if spec.Scenario.Network == Backbone {
			flows = 750
		}
	}
	rate, rtt := scenarioLink(spec.Scenario)
	schemes := SizingSchemes(rate, rtt, flows)
	sizes := make([]int, len(schemes))
	for i, s := range schemes {
		sizes[i] = s.Packets
	}
	if i := sizing.NearestIndex(buffer, sizes); i >= 0 {
		return schemes[i]
	}
	return Scheme{}
}

// evaluate measures all probes at the candidate indices the search
// has not measured yet (evaluations are memoized) as one CRN-paired
// batch through the session engine, so the candidates run side by
// side, a buffer the search revisits costs nothing, and a
// configuration any sweep or probe on the session has already
// measured is a cache hit. The candidates are recorded, and their
// cells reported to OnProgress, in the order given.
func (r *recommendSearch) evaluate(idx ...int) error {
	fresh := make([]int, 0, len(idx))
	for _, i := range idx {
		if _, ok := r.evals[i]; !ok {
			fresh = append(fresh, i)
		}
	}
	if len(fresh) == 0 {
		return nil
	}
	np := len(r.probes)
	specs := make([]experiments.ProbeSpec, 0, len(fresh)*np)
	for _, i := range fresh {
		for _, p := range r.probes {
			sp, err := r.sc.spec(p, r.bufs[i])
			if err != nil {
				return err
			}
			specs = append(specs, sp)
		}
	}
	values, err := r.s.inner.ProbeBatch(r.ctx, specs, r.o.internal())
	if err != nil {
		return err
	}
	for k, i := range fresh {
		buf := r.bufs[i]
		ev := &evaluation{cells: make([]SweepCell, np), ok: true}
		var sum float64
		for pi, v := range values[k*np : (k+1)*np] {
			c := sweepCell(r.sc.label, r.plabels[pi], buf, r.sc.sc.Network, r.probes[pi].Media, v)
			ev.cells[pi] = c
			s := cellScore(c)
			sum += s
			if s < r.threshold {
				ev.ok = false
			}
			r.done++
			if r.o.OnProgress != nil {
				r.o.OnProgress(Progress{Completed: r.done, Total: len(r.bufs) * np, Cell: c}.timing(r.start))
			}
		}
		ev.score = sum / float64(np)
		r.evals[i] = ev
		r.tried = append(r.tried, buf)
	}
	return nil
}

// cellScore is a cell's scalar QoE score: the opinion-scale MOS,
// taking the worse direction for bidirectional (access VoIP) cells.
func cellScore(c SweepCell) float64 {
	s := c.MOS
	if c.TalkMOS > 0 && c.TalkMOS < s {
		s = c.TalkMOS
	}
	return s
}

// searchMinBuffer binary-searches for the leftmost candidate whose
// evaluation meets the threshold. If none does, it returns the best
// evaluated buffer by aggregate score (Met stays false on the result).
func (r *recommendSearch) searchMinBuffer() (int, error) {
	lo, hi, found := 0, len(r.bufs)-1, -1
	for lo <= hi {
		mid := (lo + hi) / 2
		if err := r.evaluate(mid); err != nil {
			return 0, err
		}
		if r.evals[mid].ok {
			found = mid
			hi = mid - 1
		} else {
			lo = mid + 1
		}
	}
	if found >= 0 {
		return found, nil
	}
	// Nothing on the axis satisfies the floor: recommend the best of
	// what the search saw, flagged unmet. Scan candidate indices in
	// ascending order (not the map) so tied scores deterministically
	// prefer the smallest buffer — results must stay a pure function
	// of spec and options.
	best, bestScore := -1, -1.0
	for i := range r.bufs {
		if ev, ok := r.evals[i]; ok && ev.score > bestScore {
			best, bestScore = i, ev.score
		}
	}
	return best, nil
}

// searchMaxAggregate ternary-searches the (assumed unimodal)
// aggregate score, then scans the surviving bracket exhaustively. A
// step's two probes, and the bracket, do not depend on one another, so
// each is one batch.
func (r *recommendSearch) searchMaxAggregate() (int, error) {
	lo, hi := 0, len(r.bufs)-1
	for hi-lo > 2 {
		m1 := lo + (hi-lo)/3
		m2 := hi - (hi-lo)/3
		if err := r.evaluate(m1, m2); err != nil {
			return 0, err
		}
		if r.evals[m1].score < r.evals[m2].score {
			lo = m1 + 1
		} else {
			hi = m2 - 1
		}
	}
	bracket := make([]int, 0, hi-lo+1)
	for i := lo; i <= hi; i++ {
		bracket = append(bracket, i)
	}
	if err := r.evaluate(bracket...); err != nil {
		return 0, err
	}
	best, bestScore := -1, -1.0
	for _, i := range bracket {
		if ev := r.evals[i]; ev.score > bestScore {
			best, bestScore = i, ev.score
		}
	}
	return best, nil
}
