package experiments

import (
	"context"
	"fmt"
	"math"
	"time"

	"bufferqoe/internal/aqm"
	"bufferqoe/internal/engine"
	"bufferqoe/internal/netem"
	"bufferqoe/internal/sim"
	"bufferqoe/internal/tcp"
	"bufferqoe/internal/telemetry"
	"bufferqoe/internal/testbed"
	"bufferqoe/internal/video"
)

// ProbeSpec is the exported cell-submission path for custom
// configurations: one foreground measurement (VoIP, web, or video) on
// one fully described network — a paper testbed or a custom access
// link — under one Table 1 workload, buffer configuration, queue
// discipline, congestion control, and last-hop jitter. A ProbeSpec
// whose knobs match a paper configuration submits the exact cell spec
// the experiment grids use, so it answers from the same cache.
type ProbeSpec struct {
	// Testbed is "access" (the default) or "backbone". Custom links,
	// jitter, and congestion direction exist on the access shape only;
	// the backbone is downstream-congested as in the paper.
	Testbed string
	// Scenario is the Table 1 workload name; "" means "noBG". Mutually
	// exclusive with Mix.
	Scenario string
	// Mix, when non-nil, replaces the named preset with a composable
	// workload. A mix equal to a Table 1 preset under some congestion
	// direction is folded onto that preset's (Scenario, Direction)
	// during normalization, so both spellings submit the identical
	// cell spec and share one cache entry and CRN seed; a genuinely
	// custom mix is canonicalized and carried on the cell spec's
	// workload axis by its canonical encoding. Because a mix names its
	// own directions, Direction must be left at its zero value.
	Mix *testbed.Workload
	// Direction is where the background congestion applies (access).
	Direction testbed.Direction
	// Buffer is the bottleneck buffer in packets (downlink on access).
	Buffer int
	// BufferUp overrides the access uplink buffer; 0 = same as Buffer.
	BufferUp int
	// Media is "voip", "web", or "video".
	Media string
	// Profile is the video encoding profile; the zero value means SD.
	Profile video.Profile
	// Link overrides the access bottleneck rates/delays; the zero
	// value is the paper's DSL link.
	Link testbed.LinkParams
	// AQM selects the bottleneck queue discipline: "" or "droptail"
	// (the paper's), "codel", "fq-codel", "red", "ared", "pie". On the
	// access testbed it applies to both bottleneck queues, on the
	// backbone to the congested downstream queue.
	AQM string
	// CC selects background congestion control: "" (the testbed's
	// paper default: CUBIC on access, Reno on backbone), "cubic",
	// "reno", "bic", "bbr".
	CC string
	// Jitter adds a WiFi/LTE-like exponential per-packet delay on the
	// access client hop.
	Jitter time.Duration

	// tags marks a spec Normalize returned — canonical and valid, so
	// Normalize and compiling return it unchecked — and holds what its
	// scenario renders for the cell key. Copies carry the mark, so a
	// normalized spec is edited only by At, which changes none of the
	// fields the tags render.
	tags *scenarioTags
}

// scenarioTags are the cache-key fragments a normalized spec's
// scenario fields render: the variant tag of its AQM, congestion
// control and jitter, and its link's CellSpec.Link encoding. Every
// cell of a scenario shares them, so Normalize renders them once and
// At-stamped cells share them by pointer.
type scenarioTags struct {
	variant, link string
}

// paperTags are the tags of the paper's own queue, congestion control
// and link, which render empty; their scenarios share them.
var paperTags scenarioTags

// ProbeValue is a probe's measurement; which fields are populated
// depends on the media. VoIP fills ListenMOS (and TalkMOS on the
// access testbed), web fills PLT, video fills SSIM and PSNR.
type ProbeValue struct {
	ListenMOS, TalkMOS float64
	PLT                time.Duration
	SSIM, PSNR         float64
}

// aqmFactory maps a discipline name to a queue factory for a
// bottleneck of the given rate, plus its canonical variant tag.
// Drop-tail returns a nil factory (the testbed default).
func aqmFactory(name string, rateBps float64, rngLabel string) (queueFactory, error) {
	switch name {
	case "", "droptail", "drop-tail":
		return nil, nil
	case "codel":
		return func(capPkts int, _ uint64) netem.Queue {
			return aqm.NewCoDelForRate(capPkts, rateBps)
		}, nil
	case "fq-codel", "fqcodel":
		return func(capPkts int, _ uint64) netem.Queue {
			return aqm.NewFQCoDelForRate(capPkts, rateBps)
		}, nil
	case "red":
		return func(capPkts int, seed uint64) netem.Queue {
			return aqm.NewRED(capPkts, sim.NewRNG(seed, rngLabel))
		}, nil
	case "ared":
		return func(capPkts int, seed uint64) netem.Queue {
			return aqm.NewARED(capPkts, sim.NewRNG(seed, rngLabel))
		}, nil
	case "pie":
		return func(capPkts int, seed uint64) netem.Queue {
			return aqm.NewPIE(capPkts, sim.NewRNG(seed, rngLabel))
		}, nil
	default:
		return nil, fmt.Errorf("unknown AQM %q (want droptail, codel, fq-codel, red, ared, pie)", name)
	}
}

// aqmTag checks a discipline name against aqmFactory's and renders
// its canonical variant fragment; drop-tail — the default —
// contributes nothing.
func aqmTag(name string) (string, error) {
	switch name {
	case "", "droptail", "drop-tail":
		return "", nil
	case "codel":
		return "aqm=codel", nil
	case "fq-codel", "fqcodel":
		return "aqm=fq-codel", nil
	case "red":
		return "aqm=red", nil
	case "ared":
		return "aqm=ared", nil
	case "pie":
		return "aqm=pie", nil
	default:
		return "", fmt.Errorf("unknown AQM %q (want droptail, codel, fq-codel, red, ared, pie)", name)
	}
}

// ccChoice maps a congestion-control name to its constructor and
// canonical tag, folding def — the network's paper default — to the
// zero value so "cubic on access" and "default on access" are one
// cell.
func ccChoice(name, def string) (func() tcp.CongestionControl, string, error) {
	if name == def {
		name = ""
	}
	switch name {
	case "":
		return nil, "", nil
	case "cubic":
		return tcp.NewCubic, "cc=cubic", nil
	case "reno":
		return tcp.NewReno, "cc=reno", nil
	case "bic":
		return tcp.NewBIC, "cc=bic", nil
	case "bbr":
		return tcp.NewBBRLite, "cc=bbr", nil
	default:
		return nil, "", fmt.Errorf("unknown congestion control %q (want cubic, reno, bic, bbr)", name)
	}
}

// normalize fills defaults and validates the spec without building
// anything. A Mix is validated, canonicalized, and folded onto the
// matching Table 1 preset when one exists, so the rest of the
// pipeline sees exactly one spelling per workload.
func (p ProbeSpec) normalize() (ProbeSpec, error) {
	if p.Mix != nil {
		if p.Scenario != "" {
			return p, fmt.Errorf("set Scenario or Mix, not both (Scenario %q and a custom mix given)", p.Scenario)
		}
		if err := p.Mix.Validate(); err != nil {
			return p, fmt.Errorf("invalid mix: %w", err)
		}
		if p.Direction != testbed.DirDown {
			return p, fmt.Errorf("a mix names its own directions (Up/Down components); leave Direction at its zero value")
		}
	}
	if p.Scenario == "" && p.Mix == nil {
		p.Scenario = "noBG"
	}
	switch p.Testbed {
	case "":
		p.Testbed = "access"
	case "access", "backbone":
	default:
		return p, fmt.Errorf("unknown testbed %q (want access or backbone)", p.Testbed)
	}
	if p.Mix != nil {
		canon := p.Mix.Canonical()
		if p.Testbed == "backbone" {
			if len(canon.Up) > 0 {
				return p, fmt.Errorf("backbone mixes are downstream-only (Figure 3b): drop the Up components or use the access testbed")
			}
			if name, ok := testbed.MatchBackbonePreset(canon); ok {
				p.Scenario, p.Mix = name, nil
			} else {
				p.Mix = &canon
			}
		} else {
			if name, dir, ok := testbed.MatchAccessPreset(canon); ok {
				p.Scenario, p.Direction, p.Mix = name, dir, nil
			} else {
				p.Mix = &canon
			}
		}
	}
	if err := checkCell(p.Buffer, p.Media); err != nil {
		return p, err
	}
	if p.BufferUp < 0 {
		return p, fmt.Errorf("uplink buffer must be non-negative, got %d", p.BufferUp)
	}
	if p.Media == "video" && p.Profile.Name == "" {
		p.Profile = video.SD
	}
	n := networks[p.Testbed]
	if p.Mix == nil {
		if _, err := n.preset(p.Scenario, p.Direction); err != nil {
			return p, err
		}
	}
	if p.Testbed == "backbone" {
		if p.Direction != testbed.DirDown {
			return p, fmt.Errorf("backbone congestion is downstream-only, got direction %v", p.Direction)
		}
		if !p.Link.IsDefault() {
			return p, fmt.Errorf("custom links use the access shape; the backbone testbed is preset-only")
		}
		if p.Jitter != 0 {
			return p, fmt.Errorf("last-hop jitter exists on the access shape only")
		}
		if p.BufferUp != 0 {
			return p, fmt.Errorf("uplink buffer override exists on the access testbed only")
		}
	} else {
		if p.Jitter < 0 {
			return p, fmt.Errorf("jitter must be non-negative, got %v", p.Jitter)
		}
		// Zero link fields mean "the paper's value"; negatives are a
		// caller mistake, not a default request.
		if p.Link.UpRate < 0 || p.Link.DownRate < 0 {
			return p, fmt.Errorf("link rates must be non-negative, got %g/%g up/down", p.Link.UpRate, p.Link.DownRate)
		}
		if err := checkRate("UpRate", p.Link.UpRate); err != nil {
			return p, err
		}
		if err := checkRate("DownRate", p.Link.DownRate); err != nil {
			return p, err
		}
		if p.Link.ClientDelay < 0 || p.Link.ServerDelay < 0 {
			return p, fmt.Errorf("link delays must be non-negative, got %v/%v client/server", p.Link.ClientDelay, p.Link.ServerDelay)
		}
		if p.Link.Wifi.Stations < 0 {
			return p, fmt.Errorf("wifi stations must be non-negative, got %d", p.Link.Wifi.Stations)
		}
		if p.Link.Wifi.Stations == 0 && (p.Link.Wifi.RetryLimit != 0 || p.Link.Wifi.MaxAggFrames != 0) {
			return p, fmt.Errorf("wifi retry/aggregation knobs need Stations >= 1 to enable the 802.11 bottleneck")
		}
		if p.Link.Wifi.RetryLimit < 0 || p.Link.Wifi.MaxAggFrames < 0 {
			return p, fmt.Errorf("wifi retry limit and aggregation must be non-negative, got %d/%d", p.Link.Wifi.RetryLimit, p.Link.Wifi.MaxAggFrames)
		}
		if !(p.Link.Reorder >= 0 && p.Link.Reorder < 1) { // NaN fails both
			return p, fmt.Errorf("reorder probability must be in [0,1), got %g", p.Link.Reorder)
		}
	}
	qTag, err := aqmTag(p.AQM)
	if err != nil {
		return p, err
	}
	_, ccTag, err := ccChoice(p.CC, n.cc)
	if err != nil {
		return p, err
	}
	var jitterTag string
	if p.Jitter > 0 {
		jitterTag = "jitter=" + p.Jitter.String()
	}
	p.tags = &paperTags
	if tags := (scenarioTags{variant: joinTags(qTag, ccTag, jitterTag), link: linkTag(p.Link)}); tags != paperTags {
		p.tags = &tags
	}
	return p, nil
}

// checkRate checks a link rate field that is set (zero means the
// paper's rate): finite, and fast enough that one MTU-sized packet
// serializes within a cell's simulated-time cap (cellCap), a floor of
// 6.67 bits/s. On a slower link not one full packet could cross the
// bottleneck before the cell is cut off, so the cell would score a
// measurement that never happened.
func checkRate(field string, rate float64) error {
	switch {
	case rate == 0:
		return nil
	case math.IsNaN(rate) || math.IsInf(rate, 0):
		return fmt.Errorf("link %s must be a finite rate in bits/s, got %g", field, rate)
	case netem.MTU*8/rate > cellCap.Seconds():
		return fmt.Errorf("link %s %g bits/s is too slow: one %d-byte packet would take longer than a cell's %v cap to send (the floor is %.4g bits/s)",
			field, rate, netem.MTU, cellCap, netem.MTU*8/cellCap.Seconds())
	}
	return nil
}

// checkCell checks the fields that name a cell within its scenario:
// the buffer and the media (a video profile needs no check; the zero
// value means SD).
func checkCell(buffer int, media string) error {
	if buffer <= 0 {
		return fmt.Errorf("buffer must be positive, got %d", buffer)
	}
	switch media {
	case "voip", "web", "video":
		return nil
	}
	return fmt.Errorf("unknown media %q (want voip, web, video)", media)
}

// Normalize validates the spec and returns it in canonical form:
// defaults filled, a preset-equal mix folded onto its preset. A
// normalized spec compiles without being checked again, so a caller
// that validates each cell up front normalizes it once.
func (p ProbeSpec) Normalize() (ProbeSpec, error) {
	if p.tags != nil {
		return p, nil
	}
	p, err := p.normalize()
	if err != nil {
		return p, fmt.Errorf("experiments: invalid probe: %w", err)
	}
	return p, nil
}

// At returns the spec at another cell of its scenario: buffer, media
// and profile replaced. On a normalized spec it checks only what the
// cell adds and shares the scenario's rendered tags, so a caller
// compiling a grid normalizes each scenario once and stamps its cells
// with At; an unnormalized spec is normalized whole.
func (p ProbeSpec) At(buffer int, media string, profile video.Profile) (ProbeSpec, error) {
	p.Buffer, p.Media, p.Profile = buffer, media, profile
	if p.tags == nil {
		return p.Normalize()
	}
	if err := checkCell(buffer, media); err != nil {
		return p, fmt.Errorf("experiments: invalid probe: %w", err)
	}
	if media == "video" && profile.Name == "" {
		p.Profile = video.SD
	}
	return p, nil
}

// variant is a normalized spec's testbed variant without its queue
// factories, which only a simulated cell needs (see compile).
func (p ProbeSpec) variant() variant {
	cc, _, _ := ccChoice(p.CC, networks[p.Testbed].cc)
	return variant{
		tag: p.tags.variant, bufUp: p.BufferUp, cc: cc, jitter: p.Jitter,
		link: p.Link, linkTag: p.tags.link, mix: p.Mix,
	}
}

// foreground is the measurement a normalized spec's media names.
func (p ProbeSpec) foreground() foreground {
	switch p.Media {
	case "web":
		return webFG(0)
	case "video":
		return videoFG(video.ClipC, p.Profile, video.RecoveryNone)
	}
	return voipFG
}

// cellSpec is the CellSpec a normalized spec names: what a cache hit
// needs, built without the closure that simulates the cell.
func (p ProbeSpec) cellSpec(o Options) engine.CellSpec {
	v, fg := p.variant(), p.foreground()
	return cellSpec(o, networks[p.Testbed], p.Scenario, p.Direction, p.Buffer, &v, &fg)
}

// compile builds the closure that simulates a normalized spec's cell.
func (p ProbeSpec) compile(o Options) engine.CellFunc {
	n := networks[p.Testbed]
	v := p.variant()
	// The discipline goes on every queue under test: both on a duplex
	// network, the congested downstream one otherwise.
	if n.duplex {
		lp := p.Link.WithDefaults()
		v.upQueue, _ = aqmFactory(p.AQM, lp.UpRate, "aqm-up")
		v.downQueue, _ = aqmFactory(p.AQM, lp.DownRate, "aqm-down")
	} else {
		v.downQueue, _ = aqmFactory(p.AQM, testbed.BackboneRate, "aqm-down")
	}
	return cellFunc(o, n, p.Scenario, p.Direction, p.Buffer, v, p.foreground())
}

// probeCell is one compiled probe of a batch: its normalized spec and
// the batch's options. It is the cell's engine.Computer, so the
// closure that simulates the cell — capturing the options, the
// variant with its queue and CC factories, and the foreground — is
// built in Compute, which the engine calls only on a miss.
type probeCell struct {
	p *ProbeSpec
	o *Options
}

func (c *probeCell) Compute(sp engine.CellSpec, seed uint64, scr engine.Scratch) any {
	return c.p.compile(*c.o)(sp, seed, scr)
}

// value converts a cell's raw result into a ProbeValue.
func (p ProbeSpec) value(raw any) ProbeValue {
	switch r := raw.(type) {
	case voipScore:
		return ProbeValue{ListenMOS: r.Listen, TalkMOS: r.Talk}
	case float64: // backbone VoIP: one direction
		return ProbeValue{ListenMOS: r}
	case time.Duration:
		return ProbeValue{PLT: r}
	case videoScore:
		return ProbeValue{SSIM: r.SSIM, PSNR: r.PSNR}
	default:
		panic(fmt.Sprintf("experiments: unexpected cell value %T for %q probe", raw, p.Media))
	}
}

// Validate checks a probe spec without running anything.
func (p ProbeSpec) Validate() error {
	_, err := p.Normalize()
	return err
}

// ProbePlan is a batch of probes compiled once: every cell's
// normalized spec and its keyed engine task, under options whose
// defaults are filled and which carry no collector. It holds no cell
// values and no observer, so a cache reset or a store change leaves it
// valid, and nothing writes it once prepared, so concurrent callers
// may run one plan at once. A caller that asks the same batch again
// keeps the plan and submits it, rendering no spec or key a submit.
type ProbePlan struct {
	o     Options
	cells []probeCell
	tasks []engine.Task
}

// PrepareProbes validates every spec up front and compiles the batch;
// an invalid spec fails the whole batch before any simulation starts.
// A task carries its keyed CellSpec and a pointer to its probeCell, so
// a batch of cache hits builds no closure per cell. A normalized spec
// is not copied: its cell points at ps[i], so the caller must not
// modify ps while the plan is in use.
func PrepareProbes(ps []ProbeSpec, o Options) (*ProbePlan, error) {
	pl := &ProbePlan{o: o.withDefaults()}
	pl.o.Collector = nil
	pl.cells = make([]probeCell, len(ps))
	pl.tasks = make([]engine.Task, len(ps))
	for i := range ps {
		p := &ps[i]
		if p.tags == nil {
			n, err := p.Normalize()
			if err != nil {
				return nil, fmt.Errorf("spec %d: %w", i, err)
			}
			p = &n
		}
		pl.cells[i] = probeCell{p: p, o: &pl.o}
		pl.tasks[i] = engine.NewTask(p.cellSpec(pl.o), &pl.cells[i])
	}
	return pl, nil
}

// Len returns the number of cells in the plan.
func (pl *ProbePlan) Len() int { return len(pl.tasks) }

// Keys returns the cache key of every cell, in plan order.
func (pl *ProbePlan) Keys() []string {
	keys := make([]string, len(pl.tasks))
	for i, t := range pl.tasks {
		keys[i] = t.Key()
	}
	return keys
}

// observed returns the tasks of the given cells as a run reporting to
// col computes them: the plan's own when nothing observes the run,
// otherwise copies whose cells carry col in their options, keyed as
// the plan's are. Only the given cells are copied, so the cells a run
// answers from the cache cost it no copy.
func (pl *ProbePlan) observed(cells []int, col *telemetry.Collector) []engine.Task {
	tasks := make([]engine.Task, len(cells))
	if col == nil {
		for k, i := range cells {
			tasks[k] = pl.tasks[i]
		}
		return tasks
	}
	o := pl.o
	o.Collector = col
	obs := make([]probeCell, len(cells))
	for k, i := range cells {
		obs[k] = probeCell{p: pl.cells[i].p, o: &o}
		tasks[k] = pl.tasks[i].WithFn(&obs[k])
	}
	return tasks
}

// value converts the i-th cell's raw result into a ProbeValue.
func (pl *ProbePlan) value(i int, raw any) ProbeValue { return pl.cells[i].p.value(raw) }

// ProbeBatch validates every spec up front — an invalid spec fails
// the whole call before any simulation starts — then fans the cells
// out across the session's worker pool and returns one value per
// spec, in input order. Duplicate specs within the batch, or specs
// the session has already answered, are simulated once. Once ctx is
// canceled the batch returns ErrCanceled: in-flight cells drain into
// the session cache, queued cells are abandoned, and no partial
// values are returned. A draining cell may still read ps, so the
// caller must not modify ps after the call.
func (s *Session) ProbeBatch(ctx context.Context, ps []ProbeSpec, o Options) ([]ProbeValue, error) {
	pl, err := PrepareProbes(ps, o)
	if err != nil {
		return nil, err
	}
	out := make([]ProbeValue, pl.Len())
	misses, _ := s.LookupPlan(ctx, pl, func(i int, v ProbeValue) bool {
		out[i] = v
		return true
	})
	if len(misses) == 0 {
		return out, nil
	}
	errs := make([]error, pl.Len())
	s.SubmitPlan(ctx, pl, misses, o.Collector, func(i int, v ProbeValue, err error) {
		out[i], errs[i] = v, err
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// LookupPlan answers, on the caller's goroutine, every cell of the
// plan the session's cache already holds: one pass over the cache
// under one acquisition of its lock (engine.Lookup), then hit(i, v)
// for each such cell in plan order. It returns the other cells'
// indices, in plan order, for SubmitPlan: none when every cell hits,
// all of them when ctx is already canceled. hit returning false stops
// the answering, and LookupPlan returns ok false.
func (s *Session) LookupPlan(ctx context.Context, pl *ProbePlan, hit func(i int, v ProbeValue) bool) (misses []int, ok bool) {
	return s.eng.Lookup(ctx, pl.tasks, func(i int, raw any) bool {
		return hit(i, pl.value(i, raw))
	})
}

// SubmitPlan is the streaming submission path for the given cells of a
// plan — the misses LookupPlan returned: they fan out across the
// worker pool and each(i, v, err) is invoked, with i the cell's index
// in the plan, as every cell completes — in completion order, possibly
// concurrently, from worker goroutines. err is ErrCanceled for cells
// abandoned because ctx was canceled before they executed. Cells
// computed fresh report their telemetry to col, or to the session's
// collector when col is nil. SubmitPlan returns once every callback
// has run; cells already executing at cancellation drain into the
// session cache first.
func (s *Session) SubmitPlan(ctx context.Context, pl *ProbePlan, cells []int, col *telemetry.Collector, each func(i int, v ProbeValue, err error)) {
	s.eng.SubmitBatch(ctx, pl.observed(cells, s.observer(col)), func(k int, raw any, err error) {
		i := cells[k]
		if err != nil {
			each(i, ProbeValue{}, err)
			return
		}
		each(i, pl.value(i, raw), nil)
	})
}
