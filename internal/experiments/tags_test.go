package experiments

import (
	"fmt"
	"testing"
	"time"

	"bufferqoe/internal/testbed"
	"bufferqoe/internal/video"
)

// sprintfLinkTag is the fmt rendering linkTag replaced, kept as its
// reference: the tag is the Link field of every custom-link cell key,
// so linkTag must return exactly this string for every link.
func sprintfLinkTag(lp testbed.LinkParams) string {
	if lp.IsDefault() {
		return ""
	}
	lp = lp.WithDefaults()
	tag := fmt.Sprintf("up=%g;down=%g;cd=%s;sd=%s",
		lp.UpRate, lp.DownRate, lp.ClientDelay, lp.ServerDelay)
	if lp.Wifi.Stations > 0 {
		tag += fmt.Sprintf(";wifi=%d;retry=%d;agg=%d",
			lp.Wifi.Stations, lp.Wifi.RetryLimit, lp.Wifi.MaxAggFrames)
	}
	if lp.Reorder > 0 {
		tag += fmt.Sprintf(";ro=%g", lp.Reorder)
	}
	return tag
}

// FuzzLinkTag holds linkTag byte-equal to sprintfLinkTag. The corpus
// is the links TestCellKeysPinned pins, plus non-integral rates,
// sub-microsecond delays and reorder probabilities.
func FuzzLinkTag(f *testing.F) {
	for _, lp := range []testbed.LinkParams{
		{UpRate: 1e9, DownRate: 1e9, ClientDelay: 2 * time.Millisecond, ServerDelay: 10 * time.Millisecond},
		{UpRate: 65e6, DownRate: 65e6, ClientDelay: 2 * time.Millisecond, ServerDelay: 15 * time.Millisecond,
			Wifi: testbed.WifiParams{Stations: 4}, Reorder: 0.01},
		{UpRate: 1.5e6, DownRate: 123456.789, ClientDelay: 500 * time.Nanosecond, ServerDelay: 1500 * time.Nanosecond},
		{UpRate: 2.5e21, DownRate: 1e-3, ServerDelay: time.Microsecond + 1, Reorder: 1.0 / 3},
		{Wifi: testbed.WifiParams{Stations: 10, RetryLimit: 3, MaxAggFrames: 1}, Reorder: 1e-7},
		{},
	} {
		f.Add(lp.UpRate, lp.DownRate, int64(lp.ClientDelay), int64(lp.ServerDelay),
			lp.Wifi.Stations, lp.Wifi.RetryLimit, lp.Wifi.MaxAggFrames, lp.Reorder)
	}
	f.Fuzz(func(t *testing.T, up, down float64, cd, sd int64, stations, retry, agg int, reorder float64) {
		lp := testbed.LinkParams{
			UpRate: up, DownRate: down, ClientDelay: time.Duration(cd), ServerDelay: time.Duration(sd),
			Wifi:    testbed.WifiParams{Stations: stations, RetryLimit: retry, MaxAggFrames: agg},
			Reorder: reorder,
		}
		if got, want := linkTag(lp), sprintfLinkTag(lp); got != want {
			t.Fatalf("linkTag differs from the fmt rendering\n got:  %q\n want: %q", got, want)
		}
	})
}

// TestAtMatchesNormalize: a cell stamped with At from its scenario's
// normalized spec is the spec Normalize gives the whole cell, and
// names the same CellSpec; a cell fault is reported as Normalize
// reports it.
func TestAtMatchesNormalize(t *testing.T) {
	o := tiny().withDefaults()
	wifi := testbed.LinkParams{UpRate: 65e6, DownRate: 65e6, ClientDelay: 2 * time.Millisecond,
		ServerDelay: 15 * time.Millisecond, Wifi: testbed.WifiParams{Stations: 4}, Reorder: 0.02}
	scenarios := []ProbeSpec{
		{Scenario: "long-few", Direction: testbed.DirUp},
		{Testbed: "backbone", Scenario: "long", AQM: "pie", CC: "cubic"},
		{Scenario: "long-few", Link: wifi, AQM: "fqcodel", CC: "bbr", Jitter: time.Millisecond, BufferUp: 16},
		{Mix: &testbed.Workload{Up: []testbed.Component{{Sessions: 1, Infinite: true}}}},
	}
	cells := []struct {
		buf     int
		media   string
		profile video.Profile
	}{{64, "voip", video.Profile{}}, {8, "web", video.Profile{}}, {256, "video", video.HD}, {32, "video", video.Profile{}}}
	for si, sc := range scenarios {
		base := sc
		base.Buffer, base.Media = 1, "voip"
		base, err := base.Normalize()
		if err != nil {
			t.Fatalf("scenario %d: %v", si, err)
		}
		for _, c := range cells {
			whole := sc
			whole.Buffer, whole.Media, whole.Profile = c.buf, c.media, c.profile
			want, err := whole.Normalize()
			if err != nil {
				t.Fatalf("scenario %d: %v", si, err)
			}
			got, err := base.At(c.buf, c.media, c.profile)
			if err != nil {
				t.Fatalf("scenario %d: %v", si, err)
			}
			// An unnormalized spec is normalized whole.
			if raw, err := sc.At(c.buf, c.media, c.profile); err != nil || raw.cellSpec(o).Key() != want.cellSpec(o).Key() {
				t.Fatalf("scenario %d at %+v: unnormalized At gives %v, %v", si, c, raw, err)
			}
			if gk, wk := got.cellSpec(o).Key(), want.cellSpec(o).Key(); gk != wk {
				t.Fatalf("scenario %d at %+v: key %s, want %s", si, c, gk, wk)
			}
			if got.Profile != want.Profile || got.Buffer != want.Buffer || got.Media != want.Media {
				t.Fatalf("scenario %d at %+v: cell fields %+v, want %+v", si, c, got, want)
			}
		}
		for _, bad := range []struct {
			buf   int
			media string
		}{{0, "voip"}, {-3, "web"}, {64, "smoke-signals"}} {
			whole := sc
			whole.Buffer, whole.Media = bad.buf, bad.media
			_, want := whole.Normalize()
			_, got := base.At(bad.buf, bad.media, video.Profile{})
			if got == nil || want == nil || got.Error() != want.Error() {
				t.Fatalf("scenario %d at %+v: At error %v, Normalize error %v", si, bad, got, want)
			}
		}
	}
}
