package bufferqoe

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"sync"
	"sync/atomic"

	"bufferqoe/internal/experiments"
	"bufferqoe/internal/jsonenc"
)

// sweepPlan is a validated, compiled sweep: its axes, what scores each
// cell, and the probe plan of its cells — normalized specs and keyed
// engine tasks — in the grid's scenario-major cell order. Both the
// batch (SweepCtx) and streaming (SweepStream) paths execute the same
// plan, which is why they cannot diverge.
//
// A plan holds no answers: every call takes its cells' values from the
// engine cache, so a cache reset or a store change leaves it valid and
// forces exactly what it forces without one. What it keeps (kept) is a
// memo of two pure functions of a value, its score and its JSON, which
// a call uses only for a value equal to the one they were computed
// from. It holds nothing of the caller's but copies, and no run's
// Collector or OnProgress; and nothing writes it once compiled but the
// memo, which is replaced whole. A session therefore keeps it for the
// next identical request (see planMemo), and concurrent calls share
// it.
type sweepPlan struct {
	scenarios, probes []string // axis labels
	buffers           []int
	networks          []Network // per scenario: the network its cells are scored on
	media             []Media   // per probe
	cells             *experiments.ProbePlan

	kept atomic.Pointer[keptCells]
}

// keptCells is what a plan last scored and wrote, so that a re-query
// whose values have not changed scores and writes nothing: per cell,
// the raw value and the SweepCell scored from it, and — once a grid of
// the plan has been written — the cell's JSON at the prefix it was
// written at. Published whole and never written after, so concurrent
// calls share it; a call that finds it stale publishes a successor.
type keptCells struct {
	vals  []experiments.ProbeValue
	cells []SweepCell
	// prefix is the document prefix json was written at ("" for a
	// document of its own, "  " in a -serve reply); json holds every
	// cell's element, back to back, cell i ending at ends[i]. json and
	// ends are nil until a grid of the plan is written.
	prefix string
	json   []byte
	ends   []int
}

// fragment returns the i-th cell's JSON.
func (k *keptCells) fragment(i int) []byte {
	start := 0
	if i > 0 {
		start = k.ends[i-1]
	}
	return k.json[start:k.ends[i]]
}

// written returns the plan's kept cells with their JSON at prefix:
// the kept memo when it was written at prefix, else a successor that
// is, published in its place. It returns nil when there is nothing to
// write from: no kept cells yet, or one JSON cannot represent.
func (p *sweepPlan) written(prefix string) *keptCells {
	k := p.kept.Load()
	if k == nil || (k.json != nil && k.prefix == prefix) {
		return k
	}
	for _, c := range k.cells {
		if !c.finite() {
			return nil
		}
	}
	w := &keptCells{vals: k.vals, cells: k.cells, prefix: prefix, ends: make([]int, len(k.cells))}
	w.json = make([]byte, 0, cellsJSONSize(k.cells, prefix))
	in := jsonenc.NewIndent(prefix)
	for i, c := range k.cells {
		w.json = appendJSONCell(w.json, in, cellDepth, c)
		w.ends[i] = len(w.json)
	}
	p.kept.CompareAndSwap(k, w)
	return w
}

// scoring is one call's scoring of its plan's cells: a value equal to
// the kept one takes the kept cell, any other is scored again and
// collected into a successor memo, which keep publishes.
type scoring struct {
	plan       *sweepPlan
	kept, next *keptCells
}

// scoring starts a call's scoring against the plan's kept cells.
func (p *sweepPlan) scoring() scoring { return scoring{plan: p, kept: p.kept.Load()} }

// cell returns the i-th cell scored from v.
func (s *scoring) cell(i int, v experiments.ProbeValue) SweepCell {
	if s.kept != nil && sameValue(v, s.kept.vals[i]) {
		return s.kept.cells[i]
	}
	if s.next == nil {
		n := s.plan.cells.Len()
		s.next = &keptCells{vals: make([]experiments.ProbeValue, n), cells: make([]SweepCell, n)}
		if s.kept != nil {
			copy(s.next.vals, s.kept.vals)
			copy(s.next.cells, s.kept.cells)
		}
	}
	c := s.plan.cell(i, v)
	s.next.vals[i], s.next.cells[i] = v, c
	return c
}

// keep publishes what a call that scored every cell scored anew, unless
// another call has replaced the memo it scored against meanwhile.
func (s *scoring) keep() {
	if s.next != nil {
		s.plan.kept.CompareAndSwap(s.kept, s.next)
	}
}

// sameValue reports whether two values are the same bit for bit: ==
// would take -0 for +0, which score and write differently.
func sameValue(a, b experiments.ProbeValue) bool {
	return sameFloat(a.ListenMOS, b.ListenMOS) && sameFloat(a.TalkMOS, b.TalkMOS) && a.PLT == b.PLT &&
		sameFloat(a.SSIM, b.SSIM) && sameFloat(a.PSNR, b.PSNR)
}

func sameFloat(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// compileSweep validates every combination of the sweep's axes and
// compiles the cell specs under o, so an invalid corner fails the
// call before any simulation starts instead of crashing a worker
// mid-run.
func compileSweep(sw Sweep, o Options) (*sweepPlan, error) {
	if len(sw.Scenarios) == 0 || len(sw.Buffers) == 0 || len(sw.Probes) == 0 {
		return nil, fmt.Errorf("bufferqoe: a sweep needs at least one scenario, one buffer size, and one probe")
	}
	p := &sweepPlan{buffers: slices.Clone(sw.Buffers)}
	seenScenario := map[string]bool{}
	for _, sc := range sw.Scenarios {
		l := sc.Label()
		if seenScenario[l] {
			return nil, fmt.Errorf("bufferqoe: duplicate scenario label %q (set Scenario.Name to disambiguate)", l)
		}
		seenScenario[l] = true
		p.scenarios = append(p.scenarios, l)
		p.networks = append(p.networks, sc.Network)
	}
	seenProbe := map[string]bool{}
	for _, pr := range sw.Probes {
		l := pr.Label()
		if seenProbe[l] {
			return nil, fmt.Errorf("bufferqoe: duplicate probe %q", l)
		}
		seenProbe[l] = true
		p.probes = append(p.probes, l)
		p.media = append(p.media, pr.Media)
	}
	seenBuf := map[int]bool{}
	for _, b := range sw.Buffers {
		if seenBuf[b] {
			return nil, fmt.Errorf("bufferqoe: duplicate buffer size %d", b)
		}
		seenBuf[b] = true
	}

	// Each scenario is normalized once; a cell adds its probe and
	// buffer only.
	specs := make([]experiments.ProbeSpec, 0, len(sw.Scenarios)*len(sw.Probes)*len(sw.Buffers))
	for si, sc := range sw.Scenarios {
		c := sc.compile(p.scenarios[si])
		for _, pr := range sw.Probes {
			for _, buf := range sw.Buffers {
				spec, err := c.spec(pr, buf)
				if err != nil {
					return nil, err
				}
				specs = append(specs, spec)
			}
		}
	}
	cells, err := experiments.PrepareProbes(specs, o.internal())
	if err != nil {
		return nil, err
	}
	p.cells = cells
	return p, nil
}

// grid returns a fresh result grid for one call: the plan's axes,
// copied so the caller may keep or edit them, zeroed cells, and the
// plan, whose kept JSON writes the cells.
func (p *sweepPlan) grid() *Grid {
	return &Grid{
		Scenarios: slices.Clone(p.scenarios),
		Probes:    slices.Clone(p.probes),
		Buffers:   slices.Clone(p.buffers),
		Cells:     make([]SweepCell, p.cells.Len()),
		plan:      p,
	}
}

// cell scores the i-th cell's raw value into its SweepCell. The value
// is a pure function of the cell's spec, so the cell is identical no
// matter which path — batch, stream, probe — computed it, or in what
// order.
func (p *sweepPlan) cell(i int, v experiments.ProbeValue) SweepCell {
	np, nb := len(p.probes), len(p.buffers)
	si, pi, bi := i/(np*nb), (i/nb)%np, i%nb
	return sweepCell(p.scenarios[si], p.probes[pi], p.buffers[bi], p.networks[si], p.media[pi], v)
}

// planMemoSize bounds the plans a session keeps: room for the working
// set of a dashboard or a server re-asking a handful of grids, and a
// bounded few plans for a session asked a stream of one-off sweeps.
const planMemoSize = 16

// planMemo maps a request's fingerprint (appendPlanKey) to its
// compiled plan. Once full, it forgets the plan it learned first.
type planMemo struct {
	mu    sync.Mutex
	plans map[string]*sweepPlan
	order [planMemoSize]string // the keys in plans, in a ring; next is the oldest once full
	next  int
}

// get returns the plan of a fingerprint, or nil.
func (m *planMemo) get(key []byte) *sweepPlan {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.plans[string(key)]
}

// put keeps a plan under its fingerprint, forgetting the oldest plan
// when the memo is full.
func (m *planMemo) put(key []byte, p *sweepPlan) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.plans[string(key)]; ok {
		return // a concurrent call compiled it too
	}
	if m.plans == nil {
		m.plans = make(map[string]*sweepPlan, planMemoSize)
	}
	k := string(key)
	delete(m.plans, m.order[m.next])
	m.order[m.next] = k
	m.next = (m.next + 1) % planMemoSize
	m.plans[k] = p
}

// plan returns the compiled plan of a sweep asked under o: the
// session's kept plan when it has seen the request before, else a
// fresh compile, kept for next time. An invalid sweep is compiled (and
// fails) every time it is asked.
func (s *Session) plan(sw Sweep, o Options) (*sweepPlan, error) {
	var buf [512]byte
	key := appendPlanKey(buf[:0], sw, o)
	if p := s.plans.get(key); p != nil {
		return p, nil
	}
	p, err := compileSweep(sw, o)
	if err != nil {
		return nil, err
	}
	s.plans.put(key, p)
	return p, nil
}

// appendPlanKey appends the fingerprint of a sweep asked under o: every
// field of the sweep, and every field of the options that names its
// cells, written so that the whole is self-delimiting — a list or a
// string leads with its length, a pointer with whether it is set, a
// float is its IEEE bits (so -0 and +0, or two NaNs, differ when their
// bits do). Two requests share a fingerprint only if they spell the
// same sweep field for field, so they compile to the same plan. The
// fingerprint is of the raw request, not the normalized one: spellings
// that normalize alike compile a plan each, to the same cells.
//
//qoe:encodes Sweep Scenario Link Wifi Workload Traffic Probe Options
func appendPlanKey(b []byte, sw Sweep, o Options) []byte {
	b = binary.AppendUvarint(b, uint64(len(sw.Scenarios)))
	for i := range sw.Scenarios {
		b = appendScenarioKey(b, &sw.Scenarios[i])
	}
	b = binary.AppendUvarint(b, uint64(len(sw.Buffers)))
	for _, n := range sw.Buffers {
		b = binary.AppendVarint(b, int64(n))
	}
	b = binary.AppendUvarint(b, uint64(len(sw.Probes)))
	for _, p := range sw.Probes {
		b = appendKeyString(b, string(p.Media))
		b = appendKeyString(b, p.Profile)
	}
	b = binary.AppendUvarint(b, o.Seed)
	b = binary.AppendVarint(b, int64(o.Duration))
	b = binary.AppendVarint(b, int64(o.Warmup))
	b = binary.AppendVarint(b, int64(o.Reps))
	b = binary.AppendVarint(b, int64(o.ClipSeconds))
	b = binary.AppendVarint(b, int64(o.CDNFlows))
	b = appendKeyFloat(b, o.CIHalfWidth)
	return binary.AppendVarint(b, int64(o.MinReps))
}

// appendScenarioKey appends a scenario's part of the fingerprint.
func appendScenarioKey(b []byte, sc *Scenario) []byte {
	b = appendKeyString(b, sc.Name)
	b = appendKeyString(b, string(sc.Network))
	b = appendKeyBool(b, sc.Link != nil)
	if l := sc.Link; l != nil {
		b = appendKeyFloat(b, l.UpRate)
		b = appendKeyFloat(b, l.DownRate)
		b = binary.AppendVarint(b, int64(l.ClientDelay))
		b = binary.AppendVarint(b, int64(l.ServerDelay))
		b = binary.AppendVarint(b, int64(l.Wifi.Stations))
		b = binary.AppendVarint(b, int64(l.Wifi.RetryLimit))
		b = binary.AppendVarint(b, int64(l.Wifi.MaxAggFrames))
		b = appendKeyFloat(b, l.Reorder)
	}
	b = appendKeyString(b, sc.Workload)
	b = appendKeyBool(b, sc.Mix != nil)
	if w := sc.Mix; w != nil {
		b = appendTrafficKey(b, w.Up)
		b = appendTrafficKey(b, w.Down)
		b = binary.AppendVarint(b, int64(w.Scale))
	}
	b = appendKeyString(b, string(sc.Direction))
	b = binary.AppendVarint(b, int64(sc.BufferUp))
	b = appendKeyString(b, string(sc.AQM))
	b = appendKeyString(b, string(sc.CC))
	return binary.AppendVarint(b, int64(sc.Jitter))
}

// appendTrafficKey appends a mix direction's components.
func appendTrafficKey(b []byte, ts []Traffic) []byte {
	b = binary.AppendUvarint(b, uint64(len(ts)))
	for _, t := range ts {
		b = binary.AppendVarint(b, int64(t.Sessions))
		b = binary.AppendVarint(b, int64(t.Parallel))
		b = binary.AppendVarint(b, int64(t.Think))
		b = appendKeyBool(b, t.Infinite)
	}
	return b
}

func appendKeyString(b []byte, s string) []byte {
	return append(binary.AppendUvarint(b, uint64(len(s))), s...)
}

func appendKeyFloat(b []byte, f float64) []byte {
	return binary.LittleEndian.AppendUint64(b, math.Float64bits(f))
}

func appendKeyBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}
