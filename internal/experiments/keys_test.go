package experiments

import (
	"testing"
	"time"

	"bufferqoe/internal/engine"
	"bufferqoe/internal/testbed"
	"bufferqoe/internal/video"
)

// TestCellKeysPinned pins the literal CellSpec.Key() of one cell per
// foreground on each network it runs on, plus one per tag-bearing axis
// (bufUp, AQM, CC, jitter, custom and wifi links, custom mixes). The
// key is the cache identity, the store's content address and (through
// SeedKey) the CRN seed, so a builder that reorders or drops a tag
// fragment silently orphans every persisted cell; the strings below
// were recorded before the builders were collapsed into cellTask and
// change only together with an engine.Version bump. Every Options
// field holds a distinct non-default value so a field that leaks into,
// or falls out of, a foreground's spec shows up.
func TestCellKeysPinned(t *testing.T) {
	o := Options{
		Seed: 7, Duration: 9 * time.Second, Warmup: 3 * time.Second, Reps: 5,
		ClipSeconds: 6, CDNFlows: 1234, CIHalfWidth: 0.25, MinReps: 3,
	}.withDefaults()
	probe := func(p ProbeSpec) engine.Task {
		pl, err := PrepareProbes([]ProbeSpec{p}, o)
		if err != nil {
			t.Fatal(err)
		}
		return pl.tasks[0]
	}
	mix := &testbed.Workload{
		Up:   []testbed.Component{{Sessions: 2, Infinite: true}},
		Down: []testbed.Component{{Sessions: 12, Parallel: 4, Think: 1500 * time.Millisecond}},
	}
	wifi := testbed.LinkParams{
		UpRate: 65e6, DownRate: 65e6, ClientDelay: 2 * time.Millisecond, ServerDelay: 15 * time.Millisecond,
		Wifi: testbed.WifiParams{Stations: 4}, Reorder: 0.01,
	}
	cases := []struct {
		name string
		task engine.Task
		want string
	}{
		{"voip/access", cellTask(o, accessNet, "long-many", testbed.DirUp, 256, variant{}, voipFG),
			"tb=access|sc=long-many|dir=up|buf=256|bufup=0|media=voip|var=|link=|seed=7|dur=0|warm=3000000000|reps=5|clip=0|cdn=0|stop=ci3:0.25"},
		{"voip/backbone", cellTask(o, backboneNet, "short-medium", testbed.DirDown, 749, variant{}, voipFG),
			"tb=backbone|sc=short-medium|dir=|buf=749|bufup=0|media=voip|var=|link=|seed=7|dur=0|warm=3000000000|reps=5|clip=0|cdn=0|stop=ci3:0.25"},
		{"web/access", cellTask(o, accessNet, "short-few", testbed.DirBidir, 64, variant{}, webFG(0)),
			"tb=access|sc=short-few|dir=bidir|buf=64|bufup=0|media=web|var=|link=|seed=7|dur=0|warm=3000000000|reps=5|clip=0|cdn=0|stop=ci3:0.25"},
		{"web/backbone", cellTask(o, backboneNet, "long", testbed.DirDown, 749, variant{}, webFG(0)),
			"tb=backbone|sc=long|dir=|buf=749|bufup=0|media=web|var=|link=|seed=7|dur=0|warm=3000000000|reps=5|clip=0|cdn=0|stop=ci3:0.25"},
		{"web-par4/access", cellTask(o, accessNet, "long-few", testbed.DirUp, 64, variant{}, webFG(4)),
			"tb=access|sc=long-few|dir=up|buf=64|bufup=0|media=web|var=par=4|link=|seed=7|dur=0|warm=3000000000|reps=5|clip=0|cdn=0|stop=ci3:0.25"},
		{"video/access", cellTask(o, accessNet, "short-many", testbed.DirDown, 32, variant{}, videoFG(video.ClipC, video.HD, video.RecoveryNone)),
			"tb=access|sc=short-many|dir=down|buf=32|bufup=0|media=video|var=clip=C-movie;profile=HD|link=|seed=7|dur=0|warm=3000000000|reps=5|clip=6|cdn=0|stop=ci3:0.25"},
		{"video/backbone", cellTask(o, backboneNet, "short-high", testbed.DirDown, 749, variant{}, videoFG(video.ClipA, video.SD, video.RecoveryNone)),
			"tb=backbone|sc=short-high|dir=|buf=749|bufup=0|media=video|var=clip=A-interview;profile=SD|link=|seed=7|dur=0|warm=3000000000|reps=5|clip=6|cdn=0|stop=ci3:0.25"},
		{"video-rec/backbone", cellTask(o, backboneNet, "short-medium", testbed.DirDown, 28, variant{}, videoFG(video.ClipC, video.SD, video.RecoveryARQ)),
			"tb=backbone|sc=short-medium|dir=|buf=28|bufup=0|media=video|var=clip=C-movie;profile=SD;rec=arq|link=|seed=7|dur=0|warm=3000000000|reps=5|clip=6|cdn=0|stop=ci3:0.25"},
		{"background/access", cellTask(o, accessNet, "long-many", testbed.DirBidir, 64, variant{bufUp: 8}, backgroundFG),
			"tb=access|sc=long-many|dir=bidir|buf=64|bufup=8|media=background|var=|link=|seed=7|dur=9000000000|warm=3000000000|reps=0|clip=0|cdn=0"},
		{"background/backbone", cellTask(o, backboneNet, "short-overload", testbed.DirDown, 749, variant{}, backgroundFG),
			"tb=backbone|sc=short-overload|dir=|buf=749|bufup=0|media=background|var=|link=|seed=7|dur=9000000000|warm=3000000000|reps=0|clip=0|cdn=0"},
		{"playout/access", cellTask(o, accessNet, "short-many", testbed.DirDown, 256, variant{}, playoutFG("adaptive")),
			"tb=access|sc=short-many|dir=down|buf=256|bufup=0|media=voip|var=playout=adaptive|link=|seed=7|dur=0|warm=3000000000|reps=5|clip=0|cdn=0"},
		{"smoothing/access", cellTask(o, accessNet, "noBG", testbed.DirDown, 8, variant{}, smoothingFG(false)),
			"tb=access|sc=noBG|dir=|buf=8|bufup=0|media=video|var=single;mode=burst;profile=SD|link=|seed=7|dur=0|warm=0|reps=0|clip=6|cdn=0"},
		{"httpvideo/backbone", cellTask(o, backboneNet, "short-high", testbed.DirDown, 749, variant{}, httpVideoFG("abr-buffer")),
			"tb=backbone|sc=short-high|dir=|buf=749|bufup=0|media=httpvideo|var=player=abr-buffer|link=|seed=7|dur=0|warm=3000000000|reps=5|clip=6|cdn=0"},
		{"wild", wildTask(o),
			"tb=|sc=|dir=|buf=0|bufup=0|media=wild|var=|link=|seed=7|dur=0|warm=0|reps=0|clip=0|cdn=1234"},
		{"noBG-direction-folds", cellTask(o, accessNet, "noBG", testbed.DirUp, 64, variant{}, voipFG),
			"tb=access|sc=noBG|dir=|buf=64|bufup=0|media=voip|var=|link=|seed=7|dur=0|warm=3000000000|reps=5|clip=0|cdn=0|stop=ci3:0.25"},
		{"bufUp", cellTask(o, accessNet, "short-few", testbed.DirDown, 640, variant{bufUp: 8}, webFG(0)),
			"tb=access|sc=short-few|dir=down|buf=640|bufup=8|media=web|var=|link=|seed=7|dur=0|warm=3000000000|reps=5|clip=0|cdn=0|stop=ci3:0.25"},
		{"variant-tag+par", cellTask(o, accessNet, "long-many", testbed.DirUp, 256, variant{tag: "iw=10"}, webFG(6)),
			"tb=access|sc=long-many|dir=up|buf=256|bufup=0|media=web|var=iw=10;par=6|link=|seed=7|dur=0|warm=3000000000|reps=5|clip=0|cdn=0|stop=ci3:0.25"},
		{"aqm/access", probe(ProbeSpec{Scenario: "long-few", Direction: testbed.DirUp, Buffer: 256, Media: "voip", AQM: "fqcodel"}),
			"tb=access|sc=long-few|dir=up|buf=256|bufup=0|media=voip|var=aqm=fq-codel|link=|seed=7|dur=0|warm=3000000000|reps=5|clip=0|cdn=0|stop=ci3:0.25"},
		{"aqm+cc/backbone", probe(ProbeSpec{Testbed: "backbone", Scenario: "long", Buffer: 749, Media: "video", AQM: "pie", CC: "cubic"}),
			"tb=backbone|sc=long|dir=|buf=749|bufup=0|media=video|var=clip=C-movie;profile=SD;aqm=pie;cc=cubic|link=|seed=7|dur=0|warm=3000000000|reps=5|clip=6|cdn=0|stop=ci3:0.25"},
		{"cc-default-folds", probe(ProbeSpec{Scenario: "long-few", Buffer: 64, Media: "web", CC: "cubic"}),
			"tb=access|sc=long-few|dir=down|buf=64|bufup=0|media=web|var=|link=|seed=7|dur=0|warm=3000000000|reps=5|clip=0|cdn=0|stop=ci3:0.25"},
		{"cc/access", probe(ProbeSpec{Scenario: "long-few", Direction: testbed.DirBidir, Buffer: 64, Media: "voip", CC: "bbr"}),
			"tb=access|sc=long-few|dir=bidir|buf=64|bufup=0|media=voip|var=cc=bbr|link=|seed=7|dur=0|warm=3000000000|reps=5|clip=0|cdn=0|stop=ci3:0.25"},
		{"jitter", probe(ProbeSpec{Scenario: "short-few", Buffer: 64, Media: "voip", Jitter: 10 * time.Millisecond}),
			"tb=access|sc=short-few|dir=down|buf=64|bufup=0|media=voip|var=jitter=10ms|link=|seed=7|dur=0|warm=3000000000|reps=5|clip=0|cdn=0|stop=ci3:0.25"},
		{"aqm+cc+jitter+video", probe(ProbeSpec{Scenario: "short-few", Buffer: 64, BufferUp: 16, Media: "video", Profile: video.HD, AQM: "red", CC: "reno", Jitter: 2 * time.Millisecond}),
			"tb=access|sc=short-few|dir=down|buf=64|bufup=16|media=video|var=clip=C-movie;profile=HD;aqm=red;cc=reno;jitter=2ms|link=|seed=7|dur=0|warm=3000000000|reps=5|clip=6|cdn=0|stop=ci3:0.25"},
		{"link/custom", probe(ProbeSpec{Scenario: "long-few", Direction: testbed.DirUp, Buffer: 185, Media: "web", Link: testbed.LinkParams{UpRate: 1e9, DownRate: 1e9, ClientDelay: 2 * time.Millisecond, ServerDelay: 10 * time.Millisecond}}),
			"tb=access|sc=long-few|dir=up|buf=185|bufup=0|media=web|var=|link=up=1e+09;down=1e+09;cd=2ms;sd=10ms|seed=7|dur=0|warm=3000000000|reps=5|clip=0|cdn=0|stop=ci3:0.25"},
		{"link/wifi", probe(ProbeSpec{Scenario: "long-few", Buffer: 64, Media: "voip", Link: wifi, CC: "bbr"}),
			"tb=access|sc=long-few|dir=down|buf=64|bufup=0|media=voip|var=cc=bbr|link=up=6.5e+07;down=6.5e+07;cd=2ms;sd=15ms;wifi=4;retry=7;agg=16;ro=0.01|seed=7|dur=0|warm=3000000000|reps=5|clip=0|cdn=0|stop=ci3:0.25"},
		{"mix/access", probe(ProbeSpec{Mix: mix, Buffer: 64, Media: "web"}),
			"tb=access|sc=up:long=2;down:web=48/1.5s|dir=|buf=64|bufup=0|media=web|var=|link=|seed=7|dur=0|warm=3000000000|reps=5|clip=0|cdn=0|stop=ci3:0.25"},
		{"mix/backbone", probe(ProbeSpec{Testbed: "backbone", Mix: &testbed.Workload{Down: mix.Down, Scale: 3}, Buffer: 749, Media: "voip"}),
			"tb=backbone|sc=down:web=144/1.5s|dir=|buf=749|bufup=0|media=voip|var=|link=|seed=7|dur=0|warm=3000000000|reps=5|clip=0|cdn=0|stop=ci3:0.25"},
		{"mix-preset-folds", probe(ProbeSpec{Mix: &testbed.Workload{Up: []testbed.Component{{Sessions: 1, Infinite: true}}}, Buffer: 64, Media: "voip"}),
			"tb=access|sc=long-few|dir=up|buf=64|bufup=0|media=voip|var=|link=|seed=7|dur=0|warm=3000000000|reps=5|clip=0|cdn=0|stop=ci3:0.25"},
	}
	for _, c := range cases {
		if got := c.task.Key(); got != c.want {
			t.Errorf("%s: key changed\n got:  %s\n want: %s", c.name, got, c.want)
		}
	}
}
