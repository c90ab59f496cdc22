package main

import (
	"fmt"
	"math/rand"

	"bufferqoe"
)

// The three probes every grid measures: the paper's applications.
var paperProbes = []bufferqoe.Probe{
	{Media: bufferqoe.VoIP},
	{Media: bufferqoe.Web},
	{Media: bufferqoe.Video, Profile: "SD"},
}

// coldDef declares one cold workload: the grid a round sweeps on a
// fresh session and the sizing questions the Recommend phase asks.
// Only the buffer axis was trimmed against the issue's grids, so a
// whole run fits the driver's time cap; see README.md.
type coldDef struct {
	name       string
	scenarios  []bufferqoe.Scenario
	buffers    []int
	recommends []bufferqoe.RecommendSpec
}

func (d coldDef) sweep() bufferqoe.Sweep {
	return bufferqoe.Sweep{Scenarios: d.scenarios, Buffers: d.buffers, Probes: paperProbes}
}

// slice is the set-up sweep: the first scenario at the first buffer
// under every probe, enough for a fresh session's workers to build
// their testbed carcass, speech library and video source.
func (d coldDef) slice() bufferqoe.Sweep {
	return bufferqoe.Sweep{Scenarios: d.scenarios[:1], Buffers: d.buffers[:1], Probes: paperProbes}
}

// oneBuffer narrows the workload to a single buffer and a single
// sizing question, for the harness's smoke test.
func (d coldDef) oneBuffer() coldDef {
	d.buffers = d.buffers[:1]
	d.recommends = d.recommends[:1]
	d.recommends[0].Buffers = d.buffers
	return d
}

var accessWorkloads = []string{"noBG", "long-few", "long-many", "short-few", "short-many"}

// accessCold is the paper's access grid (Figs. 7-9): every Table 1
// workload in both congestion directions on the wired DSL link with
// drop-tail queues and the default congestion control. noBG has no
// congestion direction, so it is listed once.
func accessCold() coldDef {
	d := coldDef{name: "access_cold", buffers: []int{8, 64, 256}}
	d.scenarios = append(d.scenarios, bufferqoe.Scenario{Workload: "noBG"})
	for _, wl := range accessWorkloads[1:] {
		for _, dir := range []bufferqoe.Direction{bufferqoe.Down, bufferqoe.Up} {
			d.scenarios = append(d.scenarios, bufferqoe.Scenario{Workload: wl, Direction: dir})
		}
	}
	// Both targets for every workload, on the upstream direction (the
	// cheaper one). The candidate axes are sized so that the number of
	// buffers a search evaluates does not depend on what it finds: a
	// binary search over seven candidates always takes three steps, a
	// scan of three always three. Which questions are expensive then
	// depends on the workload, not on the seed.
	for _, wl := range accessWorkloads {
		sc := bufferqoe.Scenario{Workload: wl, Direction: bufferqoe.Up}
		if wl == "noBG" {
			sc.Direction = ""
		}
		d.recommends = append(d.recommends,
			bufferqoe.RecommendSpec{Scenario: sc, Probes: paperProbes, Target: bufferqoe.MinBufferMeetingMOS,
				Buffers: []int{8, 16, 32, 64, 128, 256, 512}},
			bufferqoe.RecommendSpec{Scenario: sc, Probes: paperProbes, Target: bufferqoe.MaxAggregateMOS,
				Buffers: []int{8, 64, 256}})
	}
	return d
}

// backboneCold is the backbone testbed (Figs. 10-11): hundreds of
// concurrent TCP flows per cell.
func backboneCold() coldDef {
	d := coldDef{name: "backbone_cold", buffers: []int{749}}
	for _, wl := range []string{"short-medium", "long"} {
		d.scenarios = append(d.scenarios, bufferqoe.Scenario{Network: bufferqoe.Backbone, Workload: wl})
	}
	d.recommends = []bufferqoe.RecommendSpec{{
		Scenario: bufferqoe.Scenario{Network: bufferqoe.Backbone, Workload: "short-medium"},
		Probes:   []bufferqoe.Probe{{Media: bufferqoe.VoIP}},
		Buffers:  []int{8, 28, 749, 7490},
		Target:   bufferqoe.MinBufferMeetingMOS,
	}}
	return d
}

// offpaperCold is the one scenario list where the 802.11 MAC, the
// five AQM disciplines and the paced congestion control run: a
// four-station WiFi last hop under every AQM with CUBIC and BBR.
func offpaperCold() coldDef {
	d := coldDef{name: "offpaper_cold", buffers: []int{64}}
	link := bufferqoe.WifiLink(4)
	for _, q := range []bufferqoe.AQM{bufferqoe.CoDel, bufferqoe.FQCoDel, bufferqoe.PIE, bufferqoe.RED, bufferqoe.ARED} {
		for _, cc := range []bufferqoe.CC{bufferqoe.Cubic, bufferqoe.BBR} {
			d.scenarios = append(d.scenarios, bufferqoe.Scenario{
				Link: &link, Workload: "long-few", Direction: bufferqoe.Down, AQM: q, CC: cc,
			})
		}
	}
	d.recommends = []bufferqoe.RecommendSpec{{
		// RED with CUBIC: the scenario whose cost moves least with the
		// seed, so this one question times the search, not the draw.
		Scenario: d.scenarios[6],
		Probes:   paperProbes,
		Buffers:  []int{16, 64, 256},
		Target:   bufferqoe.MaxAggregateMOS,
	}}
	return d
}

// serveBody is one request of the serve_warm set: the path and the
// JSON body POSTed to it.
type serveBody struct {
	Path string
	Body string
	// Cells is how many grid cells the reply carries (a /recommend
	// reply carries one per probe).
	Cells int
}

// smokeBodies is the smoke test's request set: one sizing question
// and one small sweep.
func smokeBodies(all []serveBody) []serveBody { return []serveBody{all[0], all[6]} }

// serveBodies derives the serve_warm request set from the seed: the
// seed picks which access workload lands in which body, so different
// seeds populate the store with different cells and the server is
// handed only the generated requests. Twelve bodies: two 36-cell
// sweeps (two workloads x six buffers x three probes, a ~10 KB
// reply), six 6-cell sweeps and four sizing questions, spanning all
// five access workloads on the upstream direction. The sizing
// questions come first so the cold pass answers them cold.
func serveBodies(seed uint64) []serveBody {
	wl := append([]string(nil), accessWorkloads...)
	rand.New(rand.NewSource(int64(seed))).Shuffle(len(wl), func(i, j int) { wl[i], wl[j] = wl[j], wl[i] })
	const six = "[8,16,32,64,128,256]"
	sweep := func(buffers string, n int, workloads ...string) serveBody {
		list := ""
		for i, w := range workloads {
			if i > 0 {
				list += ","
			}
			list += fmt.Sprintf("%q", w)
		}
		return serveBody{"/sweep", fmt.Sprintf(`{"workloads":[%s],"dir":"up","buffers":%s}`, list, buffers), n * 3 * len(workloads)}
	}
	recommend := func(w, target string) serveBody {
		return serveBody{"/recommend", fmt.Sprintf(`{"workloads":[%q],"dir":"up","buffers":%s,"target":%q}`, w, six, target), 3}
	}
	return []serveBody{
		recommend(wl[4], "min-mos"),
		recommend(wl[1], "max-mos"),
		recommend(wl[3], "min-mos"),
		recommend(wl[0], "max-mos"),
		sweep(six, 6, wl[0], wl[1]),
		sweep(six, 6, wl[2], wl[3]),
		sweep("[16,128]", 2, wl[4]),
		sweep("[8,64]", 2, wl[0]),
		sweep("[32,256]", 2, wl[1]),
		sweep("[8,256]", 2, wl[2]),
		sweep("[16,64]", 2, wl[3]),
		sweep("[32,128]", 2, wl[4]),
	}
}
