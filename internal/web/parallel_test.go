package web

import (
	"testing"
	"time"

	"bufferqoe/internal/testbed"
)

func fetchParallelOnce(t *testing.T, a *testbed.Testbed, conns int) Result {
	t.Helper()
	RegisterBrowserServer(a.MediaServerTCP, BrowserPort)
	var res *Result
	FetchParallel(a.MediaClientTCP, a.MediaServer.Addr(BrowserPort), conns,
		60*time.Second, func(r Result) { res = &r })
	a.Eng.RunFor(2 * time.Minute)
	if res == nil {
		t.Fatal("parallel fetch never finished")
	}
	return *res
}

func TestParallelFetchCompletes(t *testing.T) {
	a := testbed.NewAccess(testbed.Config{BufferUp: 64, BufferDown: 64, Seed: 1})
	r := fetchParallelOnce(t, a, 6)
	if !r.Completed {
		t.Fatal("fetch did not complete")
	}
	if r.PLT <= 0 {
		t.Fatalf("PLT = %v", r.PLT)
	}
}

func TestParallelComparableToSequentialOnIdleLink(t *testing.T) {
	// The instructive negative result: for this page (4 objects, one
	// of them gating the rest), browser parallelism does NOT beat the
	// paper's persistent sequential connection on an idle link — each
	// parallel connection pays a fresh handshake and restarts slow
	// start, which cancels the overlap gain. The two must land within
	// 50% of each other; the paper's wget methodology is therefore
	// not a QoE-pessimizing choice.
	a1 := testbed.NewAccess(testbed.Config{BufferUp: 64, BufferDown: 64, Seed: 2})
	RegisterServer(a1.MediaServerTCP, Port)
	var seq *Result
	Fetch(a1.MediaClientTCP, a1.MediaServer.Addr(Port), 60*time.Second, func(r Result) { seq = &r })
	a1.Eng.RunFor(2 * time.Minute)
	if seq == nil || !seq.Completed {
		t.Fatal("sequential fetch failed")
	}

	a2 := testbed.NewAccess(testbed.Config{BufferUp: 64, BufferDown: 64, Seed: 2})
	par := fetchParallelOnce(t, a2, 6)
	if !par.Completed {
		t.Fatal("parallel fetch failed")
	}
	ratio := par.PLT.Seconds() / seq.PLT.Seconds()
	if ratio > 1.5 || ratio < 0.5 {
		t.Fatalf("parallel/sequential PLT ratio %.2f on idle link (par %v, seq %v)",
			ratio, par.PLT, seq.PLT)
	}
}

func TestParallelSingleConnDegradesToSequentialShape(t *testing.T) {
	// maxConns=1 serializes the object downloads; it should not beat
	// a 6-way fetch.
	a1 := testbed.NewAccess(testbed.Config{BufferUp: 64, BufferDown: 64, Seed: 3})
	one := fetchParallelOnce(t, a1, 1)
	a2 := testbed.NewAccess(testbed.Config{BufferUp: 64, BufferDown: 64, Seed: 3})
	six := fetchParallelOnce(t, a2, 6)
	if !one.Completed || !six.Completed {
		t.Fatal("fetch failed")
	}
	if six.PLT > one.PLT {
		t.Fatalf("6-conn PLT %v > 1-conn PLT %v", six.PLT, one.PLT)
	}
}

func TestParallelDeadlineReported(t *testing.T) {
	// Against a congested uplink with a tiny deadline, the result must
	// report non-completion at the deadline.
	a := testbed.NewAccess(testbed.Config{BufferUp: 256, BufferDown: 256, Seed: 4})
	a.StartWorkload(testbed.MustSpec(testbed.LookupAccessScenario("long-many", testbed.DirUp)))
	RegisterBrowserServer(a.MediaServerTCP, BrowserPort)
	var res *Result
	FetchParallel(a.MediaClientTCP, a.MediaServer.Addr(BrowserPort), 6,
		500*time.Millisecond, func(r Result) { res = &r })
	a.Eng.RunFor(time.Minute)
	if res == nil {
		t.Fatal("no result")
	}
	if res.Completed {
		t.Fatal("completed despite 500ms deadline under congestion")
	}
	if res.PLT < 500*time.Millisecond {
		t.Fatalf("PLT %v below the deadline", res.PLT)
	}
}

func TestBrowserServerAddressesObjects(t *testing.T) {
	// Each object index must be retrievable individually: total bytes
	// received on a fetch equal the page size exactly.
	a := testbed.NewAccess(testbed.Config{BufferUp: 64, BufferDown: 64, Seed: 5})
	r := fetchParallelOnce(t, a, 2)
	if !r.Completed {
		t.Fatal("fetch failed")
	}
	// Completion is only reported when every object hit its exact
	// size, so reaching here with Completed proves addressing.
}
