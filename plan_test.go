package bufferqoe

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"
	"sync"
	"testing"
	"time"
)

// planOpts are short options for the plan tests' cells.
func planOpts() Options {
	return Options{Seed: 3, Duration: time.Second, Warmup: 300 * time.Millisecond, Reps: 1, ClipSeconds: 1, CIHalfWidth: 0.5}
}

// planSweep is a small sweep whose scenarios between them set a field
// of every struct the plan fingerprint encodes: a custom link, and a
// custom mix of both kinds of traffic.
func planSweep() Sweep {
	return Sweep{
		Scenarios: []Scenario{
			{
				Link:     &Link{UpRate: 2e6, DownRate: 8e6, ClientDelay: 4 * time.Millisecond, ServerDelay: 10 * time.Millisecond},
				Workload: "short-few", Direction: Up,
			},
			{Mix: &Workload{Up: []Traffic{BulkFlows(1)}, Down: []Traffic{WebSessions(2, 1, time.Second)}}},
		},
		Buffers: []int{16},
		Probes:  []Probe{{Media: VoIP}, {Media: Video, Profile: "SD"}},
	}
}

// cloneSweep deep-copies a sweep, so a flip of a pointed-to field
// changes the copy only.
func cloneSweep(sw Sweep) Sweep {
	out := Sweep{
		Scenarios: slices.Clone(sw.Scenarios),
		Buffers:   slices.Clone(sw.Buffers),
		Probes:    slices.Clone(sw.Probes),
	}
	for i, sc := range out.Scenarios {
		if sc.Link != nil {
			l := *sc.Link
			out.Scenarios[i].Link = &l
		}
		if sc.Mix != nil {
			w := Workload{Up: slices.Clone(sc.Mix.Up), Down: slices.Clone(sc.Mix.Down), Scale: sc.Mix.Scale}
			out.Scenarios[i].Mix = &w
		}
	}
	return out
}

func planKey(sw Sweep, o Options) []byte { return appendPlanKey(nil, sw, o) }

// answer renders a sweep's reply, or its error, as one string.
func answer(g *Grid, err error) string {
	if err != nil {
		return "error: " + err.Error()
	}
	js, err := g.JSON()
	if err != nil {
		return "json error: " + err.Error()
	}
	return string(js)
}

// TestPlanKeyCoversEveryField flips each field the plan fingerprint
// encodes, one at a time, and asks the flipped sweep of a session that
// has kept the plans of everything asked before: the fingerprint must
// differ from the unflipped one, and the reply must be the reply of a
// new session, which holds no plan and no cell. A fingerprint that
// skipped a field would answer the flip from the unflipped request's
// plan: its labels, its cells.
func TestPlanKeyCoversEveryField(t *testing.T) {
	flips := []struct {
		field string
		flip  func(*Sweep, *Options)
	}{
		{"Sweep.Scenarios", func(sw *Sweep, _ *Options) { sw.Scenarios = sw.Scenarios[:1] }},
		{"Sweep.Buffers", func(sw *Sweep, _ *Options) { sw.Buffers[0] = 32 }},
		{"Sweep.Probes", func(sw *Sweep, _ *Options) { sw.Probes = sw.Probes[1:] }},
		{"Scenario.Name", func(sw *Sweep, _ *Options) { sw.Scenarios[0].Name = "renamed" }},
		{"Scenario.Network", func(sw *Sweep, _ *Options) { sw.Scenarios[1].Network = Backbone }},
		{"Scenario.Link", func(sw *Sweep, _ *Options) { sw.Scenarios[0].Link = nil }},
		{"Scenario.Workload", func(sw *Sweep, _ *Options) { sw.Scenarios[0].Workload = "long-few" }},
		{"Scenario.Mix", func(sw *Sweep, _ *Options) { sw.Scenarios[1].Mix = nil }},
		{"Scenario.Direction", func(sw *Sweep, _ *Options) { sw.Scenarios[0].Direction = Down }},
		{"Scenario.BufferUp", func(sw *Sweep, _ *Options) { sw.Scenarios[0].BufferUp = 4 }},
		{"Scenario.AQM", func(sw *Sweep, _ *Options) { sw.Scenarios[0].AQM = CoDel }},
		{"Scenario.CC", func(sw *Sweep, _ *Options) { sw.Scenarios[0].CC = BBR }},
		{"Scenario.Jitter", func(sw *Sweep, _ *Options) { sw.Scenarios[0].Jitter = 2 * time.Millisecond }},
		{"Link.UpRate", func(sw *Sweep, _ *Options) { sw.Scenarios[0].Link.UpRate = 3e6 }},
		{"Link.DownRate", func(sw *Sweep, _ *Options) { sw.Scenarios[0].Link.DownRate = 9e6 }},
		{"Link.ClientDelay", func(sw *Sweep, _ *Options) { sw.Scenarios[0].Link.ClientDelay = 6 * time.Millisecond }},
		{"Link.ServerDelay", func(sw *Sweep, _ *Options) { sw.Scenarios[0].Link.ServerDelay = 12 * time.Millisecond }},
		{"Link.Wifi", func(sw *Sweep, _ *Options) { sw.Scenarios[0].Link.Wifi = Wifi{Stations: 1} }},
		{"Link.Reorder", func(sw *Sweep, _ *Options) { sw.Scenarios[0].Link.Reorder = 0.01 }},
		{"Wifi.Stations", func(sw *Sweep, _ *Options) { sw.Scenarios[0].Link.Wifi.Stations = 2 }},
		{"Wifi.RetryLimit", func(sw *Sweep, _ *Options) { sw.Scenarios[0].Link.Wifi.RetryLimit = 3 }},
		{"Wifi.MaxAggFrames", func(sw *Sweep, _ *Options) { sw.Scenarios[0].Link.Wifi.MaxAggFrames = 4 }},
		{"Workload.Up", func(sw *Sweep, _ *Options) { sw.Scenarios[1].Mix.Up = nil }},
		{"Workload.Down", func(sw *Sweep, _ *Options) { sw.Scenarios[1].Mix.Down = nil }},
		{"Workload.Scale", func(sw *Sweep, _ *Options) { sw.Scenarios[1].Mix.Scale = 2 }},
		{"Traffic.Sessions", func(sw *Sweep, _ *Options) { sw.Scenarios[1].Mix.Down[0].Sessions = 3 }},
		{"Traffic.Parallel", func(sw *Sweep, _ *Options) { sw.Scenarios[1].Mix.Down[0].Parallel = 2 }},
		{"Traffic.Think", func(sw *Sweep, _ *Options) { sw.Scenarios[1].Mix.Down[0].Think = 2 * time.Second }},
		{"Traffic.Infinite", func(sw *Sweep, _ *Options) { sw.Scenarios[1].Mix.Down[0].Infinite = true }},
		{"Probe.Media", func(sw *Sweep, _ *Options) { sw.Probes[0].Media = Web }},
		{"Probe.Profile", func(sw *Sweep, _ *Options) { sw.Probes[1].Profile = "HD" }},
		{"Options.Seed", func(_ *Sweep, o *Options) { o.Seed = 4 }},
		{"Options.Duration", func(_ *Sweep, o *Options) { o.Duration = 2 * time.Second }},
		{"Options.Warmup", func(_ *Sweep, o *Options) { o.Warmup = 400 * time.Millisecond }},
		{"Options.Reps", func(_ *Sweep, o *Options) { o.Reps = 2 }},
		{"Options.ClipSeconds", func(_ *Sweep, o *Options) { o.ClipSeconds = 2 }},
		{"Options.CDNFlows", func(_ *Sweep, o *Options) { o.CDNFlows = 1000 }},
		{"Options.CIHalfWidth", func(_ *Sweep, o *Options) { o.CIHalfWidth = 0.25 }},
		{"Options.MinReps", func(_ *Sweep, o *Options) { o.MinReps = 3 }},
	}
	s := NewSession()
	base, baseOpts := planSweep(), planOpts()
	baseKey := planKey(base, baseOpts)
	if _, err := s.Sweep(base, baseOpts); err != nil {
		t.Fatal(err)
	}
	for _, f := range flips {
		sw, o := cloneSweep(base), baseOpts
		f.flip(&sw, &o)
		if bytes.Equal(planKey(sw, o), baseKey) {
			t.Errorf("%s: flipping it leaves the plan key unchanged", f.field)
			continue
		}
		if got, want := answer(s.Sweep(sw, o)), answer(NewSession().Sweep(sw, o)); got != want {
			t.Errorf("%s: a session that kept earlier plans answers\n%s\nwant a new session's\n%s", f.field, got, want)
		}
	}
}

// TestPlanCarriesNoObserver asks one sweep four times of one session:
// observed by collector A; after ResetCache, observed by collector B;
// warm; and after another ResetCache, observed by neither. B must
// record every cell its call recomputed, A and B nothing of the calls
// they did not observe, and each call's OnProgress must fire once per
// cell. The mutant this test fails is a plan that captured the first
// caller's Options: its cells would report to A, and its progress hook
// would fire for every later caller.
func TestPlanCarriesNoObserver(t *testing.T) {
	s, sw := NewSession(), planSweep()
	sw.Probes = sw.Probes[:1]
	n := len(sw.Scenarios) * len(sw.Buffers) * len(sw.Probes)
	run := func(col *Collector) int {
		o := planOpts()
		o.Collector = col
		calls := 0
		o.OnProgress = func(Progress) { calls++ }
		if _, err := s.Sweep(sw, o); err != nil {
			t.Fatal(err)
		}
		return calls
	}
	a, b := NewCollector(), NewCollector()
	if calls := run(a); calls != n {
		t.Fatalf("first call: OnProgress fired %d times for %d cells", calls, n)
	}
	s.ResetCache()
	if calls := run(b); calls != n {
		t.Fatalf("after ResetCache: OnProgress fired %d times for %d cells", calls, n)
	}
	if got := a.Metrics().PhaseCells; got != uint64(n) {
		t.Errorf("collector A recorded %d cells, want the %d of its own call", got, n)
	}
	if got := b.Metrics().PhaseCells; got != uint64(n) {
		t.Errorf("collector B recorded %d recomputed cells, want %d", got, n)
	}
	if calls := run(nil); calls != n {
		t.Fatalf("warm call: OnProgress fired %d times for %d cells", calls, n)
	}
	s.ResetCache()
	if calls := run(nil); calls != n {
		t.Fatalf("unobserved call after ResetCache: OnProgress fired %d times for %d cells", calls, n)
	}
	for name, c := range map[string]*Collector{"A": a, "B": b} {
		if m := c.Metrics(); m.PhaseCells != uint64(n) || m.SweepCells != uint64(n) {
			t.Errorf("collector %s: %d cells recorded, %d sweep cells counted after calls it did not observe; want %d each", name, m.PhaseCells, m.SweepCells, n)
		}
	}
}

// TestPlansSharedAcrossCallers has goroutines re-ask one sweep and two
// others of one session at once: every reply must be byte-equal to the
// reply of a session asked alone.
func TestPlansSharedAcrossCallers(t *testing.T) {
	o := planOpts()
	one := planSweep()
	one.Probes = one.Probes[:1]
	two := cloneSweep(one)
	two.Buffers = []int{8, 16}
	three := cloneSweep(one)
	three.Scenarios = three.Scenarios[1:]
	sweeps := []Sweep{one, two, three}
	want := make([]string, len(sweeps))
	for i, sw := range sweeps {
		want[i] = answer(NewSession().Sweep(sw, o))
	}
	s := NewSession()
	var wg sync.WaitGroup
	errs := make(chan error, 24)
	for g := range 8 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := range 3 {
				i := 0 // half the callers ask the same sweep every time
				if g%2 == 1 {
					i = (g + r) % len(sweeps)
				}
				if got := answer(s.SweepCtx(context.Background(), sweeps[i], o)); got != want[i] {
					errs <- fmt.Errorf("caller %d, round %d, sweep %d: reply differs from a lone session's", g, r, i)
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestPlanOwnsItsInputs edits the caller's Link, mix and buffer slice
// between two calls: the second reply must be the reply of a new
// session to the edited sweep, never one compiled from what the
// first call pointed at.
func TestPlanOwnsItsInputs(t *testing.T) {
	s, o := NewSession(), planOpts()
	sw := planSweep()
	sw.Probes = sw.Probes[:1]
	if _, err := s.Sweep(sw, o); err != nil {
		t.Fatal(err)
	}
	sw.Scenarios[0].Link.DownRate = 4e6
	sw.Scenarios[1].Mix.Down[0].Sessions = 4
	sw.Buffers[0] = 24
	if got, want := answer(s.Sweep(sw, o)), answer(NewSession().Sweep(sw, o)); got != want {
		t.Fatalf("after editing the caller's link, mix and buffers:\n%s\nwant\n%s", got, want)
	}
}

// TestPlanMemoBounded asks a session 1,000 distinct sweeps (canceled
// before any cell runs, so each costs only its compile): the session
// keeps no more than planMemoSize plans, and the last one it kept is
// the last one asked.
func TestPlanMemoBounded(t *testing.T) {
	s, o := NewSession(), planOpts()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	sw := planSweep()
	for i := range 1000 {
		sw.Buffers = []int{i + 1}
		if _, err := s.SweepCtx(ctx, sw, o); !errors.Is(err, ErrCanceled) {
			t.Fatalf("sweep %d: %v, want ErrCanceled", i, err)
		}
	}
	if got := len(s.plans.plans); got != planMemoSize {
		t.Fatalf("after 1,000 distinct sweeps the session keeps %d plans, want its bound %d", got, planMemoSize)
	}
	if s.plans.get(planKey(sw, o)) == nil {
		t.Fatal("the latest sweep's plan was not kept")
	}
}

// TestPlanLookupAllocatesNothing: finding a kept plan renders its
// fingerprint on the stack and looks it up without converting it, so
// a warm re-query's compile step allocates nothing.
func TestPlanLookupAllocatesNothing(t *testing.T) {
	s, sw, o := NewSession(), planSweep(), planOpts()
	p, err := s.plan(sw, o)
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(50, func() {
		if q, _ := s.plan(sw, o); q != p {
			t.Fatal("a repeated request compiled a new plan")
		}
	})
	if allocs != 0 {
		t.Fatalf("finding a kept plan allocates %.0f", allocs)
	}
}

// planChoices are the values the fuzzer's sweeps draw their string
// fields from: valid names, their other spellings, and invalid ones.
var planChoices = struct {
	network, workload, direction, aqm, cc, media, profile []string
}{
	network:   []string{"", "access", "backbone", "lan"},
	workload:  []string{"", "noBG", "short-few", "long-many", "long", "bogus"},
	direction: []string{"", "down", "up", "bidir", "sideways"},
	aqm:       []string{"", "codel", "fq-codel", "pie", "tail"},
	cc:        []string{"", "cubic", "bbr", "reno", "vegas"},
	media:     []string{"voip", "web", "video", ""},
	profile:   []string{"", "SD", "sd", "HD", "4K"},
}

// planFloats are the link floats the fuzzer starts from: zero of both
// signs, NaN, and rates and probabilities either side of valid.
var planFloats = []float64{0, math.Copysign(0, -1), math.NaN(), 1e6, 16e6, -1, 0.01, 1}

// planReader decodes a sweep and options from fuzz bytes; once the
// bytes run out every read is zero.
type planReader struct{ b []byte }

func (r *planReader) byte() byte {
	if len(r.b) == 0 {
		return 0
	}
	c := r.b[0]
	r.b = r.b[1:]
	return c
}

func (r *planReader) int(n int) int { return int(r.byte()) % n }

func (r *planReader) small() int { return int(int8(r.byte())) }

func (r *planReader) pick(s []string) string { return s[r.int(len(s))] }

func (r *planReader) dur() time.Duration { return time.Duration(r.small()) * time.Millisecond }

func (r *planReader) float() float64 {
	if c := r.byte(); c < 0x80 {
		return planFloats[int(c)%len(planFloats)]
	}
	var u [8]byte
	for i := range u {
		u[i] = r.byte()
	}
	return math.Float64frombits(binary.LittleEndian.Uint64(u[:]))
}

func (r *planReader) str() string {
	n := r.int(4)
	out := make([]byte, n)
	for i := range out {
		out[i] = 'a' + byte(r.int(3))
	}
	return string(out)
}

func (r *planReader) traffic() []Traffic {
	var ts []Traffic
	for range r.int(3) {
		ts = append(ts, Traffic{Sessions: r.small(), Parallel: r.small(), Think: r.dur(), Infinite: r.byte()&1 == 1})
	}
	return ts
}

func (r *planReader) sweep() (Sweep, Options) {
	var sw Sweep
	for range 1 + r.int(3) {
		sc := Scenario{
			Name: r.str(), Network: Network(r.pick(planChoices.network)),
			Workload: r.pick(planChoices.workload), Direction: Direction(r.pick(planChoices.direction)),
			BufferUp: r.small(), AQM: AQM(r.pick(planChoices.aqm)), CC: CC(r.pick(planChoices.cc)), Jitter: r.dur(),
		}
		if r.byte()&1 == 1 {
			sc.Link = &Link{
				UpRate: r.float(), DownRate: r.float(), ClientDelay: r.dur(), ServerDelay: r.dur(),
				Wifi:    Wifi{Stations: r.small(), RetryLimit: r.small(), MaxAggFrames: r.small()},
				Reorder: r.float(),
			}
		}
		if r.byte()&1 == 1 {
			sc.Mix = &Workload{Up: r.traffic(), Down: r.traffic(), Scale: r.small()}
		}
		sw.Scenarios = append(sw.Scenarios, sc)
	}
	for range 1 + r.int(3) {
		sw.Buffers = append(sw.Buffers, r.small())
	}
	for range 1 + r.int(3) {
		sw.Probes = append(sw.Probes, Probe{Media: Media(r.pick(planChoices.media)), Profile: r.pick(planChoices.profile)})
	}
	o := Options{
		Seed: uint64(r.byte()), Duration: r.dur(), Warmup: r.dur(), Reps: r.small(),
		ClipSeconds: r.small(), CDNFlows: r.small(), CIHalfWidth: r.float(), MinReps: r.small(),
	}
	return sw, o
}

// compiled renders what a sweep compiles to: its axes and every cell's
// cache key, or its error.
func compiled(sw Sweep, o Options) string {
	p, err := compileSweep(sw, o)
	if err != nil {
		return "error: " + err.Error()
	}
	return fmt.Sprintf("%q %q %v %v %q", p.scenarios, p.probes, p.buffers, p.networks, p.cells.Keys())
}

// FuzzPlanKey holds the plan fingerprint to what it stands for: two
// requests with one fingerprint compile to byte-equal axes and cell
// keys (or the same error). The second request is the first with the
// edits the second input names, so most pairs are near misses: a
// string boundary moved, a zero's sign flipped, a NaN's payload
// changed, one field set to what it was.
func FuzzPlanKey(f *testing.F) {
	f.Add([]byte{}, []byte{})
	f.Add([]byte{1, 2, 0, 2, 1, 1, 1, 0, 0, 1, 0, 1, 0, 0, 1}, []byte{3, 1})
	f.Add([]byte{0, 1, 'a', 1, 2, 2, 0, 0, 0, 0, 1, 0x81, 0, 0, 0, 0, 0, 0, 0, 0x80, 1, 1}, []byte{5, 0x81, 9, 0})
	f.Add([]byte{2, 2, 0, 1, 1, 3, 1, 0, 2, 1, 1, 1, 3, 2, 5, 5, 0, 0, 0, 1, 1, 1, 0, 1, 0, 0, 0, 2}, []byte{1, 2, 2, 2, 6, 3})
	f.Fuzz(func(t *testing.T, data, edits []byte) {
		a, ao := (&planReader{data}).sweep()
		b, bo := (&planReader{data}).sweep()
		applyEdits(&b, &bo, edits)
		if !bytes.Equal(planKey(a, ao), planKey(b, bo)) {
			return
		}
		if ca, cb := compiled(a, ao), compiled(b, bo); ca != cb {
			t.Fatalf("one plan key, two plans:\n%s\n%s", ca, cb)
		}
	})
}

// applyEdits sets fields of a decoded request from fuzz bytes, each
// edit a field selector and the bytes its value is read from.
func applyEdits(sw *Sweep, o *Options, edits []byte) {
	r := &planReader{edits}
	for len(r.b) > 0 {
		sc := &sw.Scenarios[r.int(len(sw.Scenarios))]
		switch r.int(12) {
		case 0:
			sc.Name = r.str()
		case 1:
			sc.Workload = r.pick(planChoices.workload)
		case 2:
			if sc.Link != nil {
				sc.Link.UpRate = r.float()
			}
		case 3:
			if sc.Link != nil {
				sc.Link.Reorder = r.float()
			}
		case 4:
			if sc.Mix != nil {
				sc.Mix.Up, sc.Mix.Down = sc.Mix.Down, sc.Mix.Up
			}
		case 5:
			sc.Link = nil
		case 6:
			sc.Mix = nil
		case 7:
			sw.Buffers[r.int(len(sw.Buffers))] = r.small()
		case 8:
			sw.Probes[r.int(len(sw.Probes))].Profile = r.pick(planChoices.profile)
		case 9:
			o.CIHalfWidth = r.float()
		case 10:
			o.Seed = uint64(r.byte())
		case 11:
			sc.Direction = Direction(r.pick(planChoices.direction))
		}
	}
}
