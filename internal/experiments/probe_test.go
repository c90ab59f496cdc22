package experiments

import (
	"context"
	"math"
	"strings"
	"testing"
	"time"

	"bufferqoe/internal/engine"
	"bufferqoe/internal/netem"
	"bufferqoe/internal/testbed"
	"bufferqoe/internal/video"
)

func TestProbeSpecValidate(t *testing.T) {
	good := []ProbeSpec{
		{Buffer: 64, Media: "voip"},
		{Buffer: 64, Media: "web", Scenario: "short-few", Direction: testbed.DirUp},
		{Buffer: 749, Media: "video", Testbed: "backbone", Scenario: "long"},
		{Buffer: 64, Media: "voip", Link: testbed.LinkParams{UpRate: 1e9, DownRate: 1e9}, AQM: "codel", CC: "reno", Jitter: time.Millisecond},
	}
	for i, p := range good {
		if err := p.Validate(); err != nil {
			t.Fatalf("good spec %d rejected: %v", i, err)
		}
	}
	bad := []ProbeSpec{
		{Buffer: 64, Media: "voip", Testbed: "datacenter"},
		{Buffer: 0, Media: "voip"},
		{Buffer: 64, Media: "smoke-signals"},
		{Buffer: 64, Media: "voip", Scenario: "nope"},
		{Buffer: 749, Media: "voip", Testbed: "backbone", Scenario: "long-many"},
		{Buffer: 749, Media: "voip", Testbed: "backbone", Scenario: "long", Direction: testbed.DirUp},
		{Buffer: 749, Media: "voip", Testbed: "backbone", Scenario: "long", Link: testbed.LinkParams{UpRate: 5e6}},
		{Buffer: 749, Media: "voip", Testbed: "backbone", Scenario: "long", Jitter: time.Millisecond},
		{Buffer: 64, Media: "voip", AQM: "wishful-thinking"},
		{Buffer: 64, Media: "voip", CC: "carrier-pigeon"},
		{Buffer: 64, Media: "voip", BufferUp: -1},
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Fatalf("bad spec %d accepted: %+v", i, p)
		}
	}
}

// TestProbeRefusesLinksWithNoAnswer: a link rate that is not a finite
// number, or so slow that one full packet cannot cross the bottleneck
// within a cell's simulated-time cap, and a reorder probability that is
// not a number, are refused with an error naming the field; the
// slowest rate that fits the cap is accepted.
func TestProbeRefusesLinksWithNoAnswer(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	floor := netem.MTU * 8 / cellCap.Seconds()
	for _, tc := range []struct {
		link  testbed.LinkParams
		names string
	}{
		{testbed.LinkParams{UpRate: nan}, "UpRate"},
		{testbed.LinkParams{UpRate: inf}, "UpRate"},
		{testbed.LinkParams{DownRate: nan}, "DownRate"},
		{testbed.LinkParams{DownRate: inf}, "DownRate"},
		{testbed.LinkParams{DownRate: -inf}, "non-negative"},
		{testbed.LinkParams{DownRate: 1e-300}, "DownRate"},
		{testbed.LinkParams{UpRate: 1e6, DownRate: math.Nextafter(floor, 0)}, "DownRate"},
		{testbed.LinkParams{UpRate: 6, Wifi: testbed.WifiParams{Stations: 4}}, "UpRate"},
		{testbed.LinkParams{Reorder: nan}, "reorder"},
	} {
		err := ProbeSpec{Buffer: 64, Media: "voip", Link: tc.link}.Validate()
		if err == nil || !strings.Contains(err.Error(), tc.names) {
			t.Errorf("link %+v: error %v, want one naming %q", tc.link, err, tc.names)
		}
	}
	if err := (ProbeSpec{Buffer: 64, Media: "voip", Link: testbed.LinkParams{UpRate: floor, DownRate: floor}}).Validate(); err != nil {
		t.Errorf("a link at the floor %g bits/s was refused: %v", floor, err)
	}
}

// FuzzProbeNormalize: every custom link Normalize accepts has finite,
// positive rates once the paper's fill its zeros, a reorder probability
// in [0,1), and sends one MTU-sized packet within a cell's cap.
func FuzzProbeNormalize(f *testing.F) {
	for _, c := range []struct{ up, down, reorder float64 }{
		{0, 0, 0}, {1e9, 2.5e8, 0.01}, {math.NaN(), 0, 0}, {0, math.Inf(1), 0}, {0, math.Inf(-1), 0},
		{1e-300, 0, 0}, {6.6, 7, 0}, {6.67, 6.67, 0.999}, {5e-324, math.MaxFloat64, math.NaN()},
		{math.Copysign(0, -1), 1e6, -0.5},
	} {
		f.Add(c.up, c.down, c.reorder, uint8(0))
		f.Add(c.up, c.down, c.reorder, uint8(4))
	}
	f.Fuzz(func(t *testing.T, up, down, reorder float64, stations uint8) {
		p, err := ProbeSpec{Buffer: 64, Media: "voip", Link: testbed.LinkParams{
			UpRate: up, DownRate: down, Reorder: reorder, Wifi: testbed.WifiParams{Stations: int(stations % 8)},
		}}.Normalize()
		if err != nil {
			return
		}
		lp := p.Link.WithDefaults()
		for _, rate := range []float64{lp.UpRate, lp.DownRate} {
			if math.IsNaN(rate) || math.IsInf(rate, 0) || rate <= 0 {
				t.Fatalf("accepted link %+v has rate %g", p.Link, rate)
			}
			if s := netem.MTU * 8 / rate; s > cellCap.Seconds() {
				t.Fatalf("accepted link %+v takes %gs to send one packet at %g bits/s, over the %v cap", p.Link, s, rate, cellCap)
			}
		}
		if !(lp.Reorder >= 0 && lp.Reorder < 1) {
			t.Fatalf("accepted link %+v has reorder probability %g", p.Link, lp.Reorder)
		}
	})
}

// TestProbeBatchPairsLinks: custom-link cells must reuse the same
// derived seed as the preset link (common random numbers), while
// caching separately.
func TestProbeBatchPairsLinks(t *testing.T) {
	s := NewSession(0)
	o := tiny()
	specs := []ProbeSpec{
		{Scenario: "short-few", Direction: testbed.DirUp, Buffer: 64, Media: "web"},
		{Scenario: "short-few", Direction: testbed.DirUp, Buffer: 64, Media: "web",
			Link: testbed.LinkParams{UpRate: 1e9, DownRate: 1e9, ClientDelay: 2 * time.Millisecond, ServerDelay: 10 * time.Millisecond}},
	}
	vals, err := s.ProbeBatch(t.Context(), specs, o)
	if err != nil {
		t.Fatal(err)
	}
	if len(vals) != 2 {
		t.Fatalf("got %d values", len(vals))
	}
	if vals[0].PLT <= 0 || vals[1].PLT <= 0 {
		t.Fatalf("empty PLTs: %+v", vals)
	}
	if vals[1].PLT >= vals[0].PLT {
		t.Fatalf("gigabit fiber (%v) not faster than DSL (%v)", vals[1].PLT, vals[0].PLT)
	}
	if st := s.EngineStats(); st.Misses != 2 {
		t.Fatalf("expected 2 distinct cells, got %+v", st)
	}
}

// TestProbeBatchFailsFast: one invalid spec must fail the whole batch
// before any simulation.
func TestProbeBatchFailsFast(t *testing.T) {
	s := NewSession(0)
	_, err := s.ProbeBatch(t.Context(), []ProbeSpec{
		{Scenario: "noBG", Buffer: 64, Media: "web"},
		{Scenario: "bogus", Buffer: 64, Media: "web"},
	}, tiny())
	if err == nil {
		t.Fatal("expected error")
	}
	if st := s.EngineStats(); st.Misses != 0 {
		t.Fatalf("batch simulated cells despite invalid spec: %+v", st)
	}
}

// TestLinkTagCanonical: a custom link spelled as the paper defaults
// must collapse to the preset encoding.
func TestLinkTagCanonical(t *testing.T) {
	if tag := linkTag(testbed.LinkParams{}); tag != "" {
		t.Fatalf("zero link params tagged %q", tag)
	}
	explicit := testbed.LinkParams{
		UpRate: testbed.AccessUpRate, DownRate: testbed.AccessDownRate,
		ClientDelay: testbed.AccessClientDelay, ServerDelay: testbed.AccessServerDelay,
	}
	if tag := linkTag(explicit); tag != "" {
		t.Fatalf("explicit paper link tagged %q, want preset \"\"", tag)
	}
	partial := testbed.LinkParams{UpRate: 2e6}
	if tag := linkTag(partial); tag == "" {
		t.Fatal("custom uplink rate collapsed to the preset tag")
	}
}

// TestVideoProbeHonorsDirection: an access video probe under upload
// congestion must be a distinct cell from the download-congestion one
// (the paper's grids are down-only; the composable path is not).
func TestVideoProbeHonorsDirection(t *testing.T) {
	s := NewSession(0)
	o := tiny()
	down := ProbeSpec{Scenario: "long-many", Direction: testbed.DirDown, Buffer: 64, Media: "video"}
	up := ProbeSpec{Scenario: "long-many", Direction: testbed.DirUp, Buffer: 64, Media: "video"}
	vals, err := s.ProbeBatch(t.Context(), []ProbeSpec{down, up}, o)
	if err != nil {
		t.Fatal(err)
	}
	if st := s.EngineStats(); st.Misses != 2 {
		t.Fatalf("up and down video probes shared a cell: %+v", st)
	}
	// Downstream sessions congest the video's own direction; upload
	// congestion leaves the downlink clear, so the stream must score
	// at least as well.
	if vals[1].SSIM < vals[0].SSIM {
		t.Fatalf("upload-congestion SSIM %.3f < download-congestion %.3f", vals[1].SSIM, vals[0].SSIM)
	}
	// The down-direction probe is still the paper grid's cell (fig9a
	// builds exactly this task).
	grid := cellTask(s.opts(o), accessNet, "long-many", testbed.DirDown, 64, variant{},
		videoFG(video.ClipC, video.SD, video.RecoveryNone))
	gridVals, err := s.eng.RunBatch(t.Context(), []engine.Task{grid})
	if err != nil {
		t.Fatal(err)
	}
	if got := gridVals[0].(videoScore).SSIM; got != vals[0].SSIM {
		t.Fatalf("down probe %v != grid cell %v", vals[0].SSIM, got)
	}
	if st := s.EngineStats(); st.Misses != 2 {
		t.Fatalf("the grid's cell missed the probe cache: %+v", s.EngineStats())
	}
}

// TestProbeRejectsOutOfRangeDirection: an invalid Direction int must
// fail validation instead of caching an idle cell under the "bidir"
// key (Direction.String's default branch).
func TestProbeRejectsOutOfRangeDirection(t *testing.T) {
	p := ProbeSpec{Scenario: "long-many", Direction: testbed.Direction(3), Buffer: 64, Media: "voip"}
	if err := p.Validate(); err == nil {
		t.Fatal("out-of-range direction accepted")
	}
}

// probeOne runs one probe as a one-spec batch.
func probeOne(ctx context.Context, s *Session, p ProbeSpec, o Options) (ProbeValue, error) {
	vals, err := s.ProbeBatch(ctx, []ProbeSpec{p}, o)
	if err != nil {
		return ProbeValue{}, err
	}
	return vals[0], nil
}
