package harpoon

import (
	"testing"
	"testing/quick"
	"time"

	"bufferqoe/internal/netem"
	"bufferqoe/internal/sim"
	"bufferqoe/internal/tcp"
)

// rig is a minimal two-host network for generator tests.
type rig struct {
	eng            *sim.Engine
	sender, sinkSt *tcp.Stack
}

func newRig() *rig {
	eng := sim.New()
	nw := netem.NewNetwork(eng)
	a := nw.NewNode("sender")
	b := nw.NewNode("sink")
	nw.Connect(a, b, 50e6, 5*time.Millisecond, 500)
	return &rig{
		eng:    eng,
		sender: tcp.NewStack(a, tcp.Config{}),
		sinkSt: tcp.NewStack(b, tcp.Config{}),
	}
}

func TestFileSizeWeibullMean(t *testing.T) {
	rng := sim.NewRNG(1, "w")
	var sum float64
	const n = 300000
	for i := 0; i < n; i++ {
		sum += float64(FileSizeWeibull(rng))
	}
	mean := sum / n
	// Paper: Weibull(0.35, 10039) has mean ~50 KB.
	if mean < 40000 || mean > 64000 {
		t.Fatalf("mean file size = %.0f, want ~50000", mean)
	}
}

// Property: file sizes are always at least one byte.
func TestPropertyFileSizePositive(t *testing.T) {
	f := func(seed uint64) bool {
		rng := sim.NewRNG(seed, "w")
		for i := 0; i < 100; i++ {
			if FileSizeWeibull(rng) < 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestSpecLoops(t *testing.T) {
	if (Spec{Sessions: 4, Parallel: 3}).Loops() != 12 {
		t.Fatal("loops != sessions*parallel")
	}
	if (Spec{Sessions: 4}).Loops() != 4 {
		t.Fatal("zero parallel should default to 1")
	}
}

func TestClosedLoopSessions(t *testing.T) {
	r := newRig()
	RegisterSink(r.sinkSt, SinkPort)
	gen := NewGenerator(r.eng, sim.NewRNG(2, "g"),
		[]*tcp.Stack{r.sender}, []netem.Addr{r.sinkSt.Node().Addr(SinkPort)})
	gen.Start(Spec{Sessions: 2, Parallel: 2, Think: 100 * time.Millisecond})
	gen.StartConcurrencySampling(time.Second)
	r.eng.RunUntil(sim.Time(30 * time.Second))
	st := gen.Stats()
	if st.Completed < 20 {
		t.Fatalf("completed = %d, want many", st.Completed)
	}
	if st.BytesMoved == 0 {
		t.Fatal("no bytes moved")
	}
	// Closed loop: concurrency bounded by loop count.
	if max := st.Concurrent.Max(); max > 4 {
		t.Fatalf("concurrency %v exceeded loop count 4", max)
	}
}

func TestInfiniteFlowsStayUp(t *testing.T) {
	r := newRig()
	RegisterSink(r.sinkSt, SinkPort)
	gen := NewGenerator(r.eng, sim.NewRNG(3, "g"),
		[]*tcp.Stack{r.sender}, []netem.Addr{r.sinkSt.Node().Addr(SinkPort)})
	gen.Start(Spec{Sessions: 3, Infinite: true})
	r.eng.RunUntil(sim.Time(20 * time.Second))
	if gen.Active() != 3 {
		t.Fatalf("active infinite flows = %d, want 3", gen.Active())
	}
	if gen.Stats().Completed != 0 {
		t.Fatal("infinite flows completed")
	}
	// They must actually move data at line rate.
	if gen.Stats().BytesMoved != 0 {
		t.Fatal("BytesMoved counts only completed flows")
	}
}

func TestSessionsAreDeterministic(t *testing.T) {
	run := func() uint64 {
		r := newRig()
		RegisterSink(r.sinkSt, SinkPort)
		gen := NewGenerator(r.eng, sim.NewRNG(4, "g"),
			[]*tcp.Stack{r.sender}, []netem.Addr{r.sinkSt.Node().Addr(SinkPort)})
		gen.Start(Spec{Sessions: 3, Parallel: 2, Think: 200 * time.Millisecond})
		r.eng.RunUntil(sim.Time(15 * time.Second))
		return gen.Stats().Completed
	}
	if run() != run() {
		t.Fatal("generator not deterministic")
	}
}

func TestGeneratorSpreadsAcrossSenders(t *testing.T) {
	eng := sim.New()
	nw := netem.NewNetwork(eng)
	hub := nw.NewNode("hub")
	sink := nw.NewNode("sink")
	_, sinkHub := nw.Connect(hub, sink, 100e6, time.Millisecond, 500)
	sink.SetDefaultRoute(sinkHub) // replies to senders go via the hub
	var senders []*tcp.Stack
	for i := 0; i < 3; i++ {
		n := nw.NewNode("s")
		toHub, _ := nw.Connect(n, hub, 100e6, time.Millisecond, 500)
		n.SetDefaultRoute(toHub)
		senders = append(senders, tcp.NewStack(n, tcp.Config{}))
	}
	sinkSt := tcp.NewStack(sink, tcp.Config{})
	RegisterSink(sinkSt, SinkPort)
	gen := NewGenerator(eng, sim.NewRNG(5, "g"), senders, []netem.Addr{sink.Addr(SinkPort)})
	gen.Start(Spec{Sessions: 3, Parallel: 1, Think: 50 * time.Millisecond})
	eng.RunUntil(sim.Time(10 * time.Second))
	if gen.Stats().Completed == 0 {
		t.Fatal("no completions in multi-sender rig")
	}
	// All three sender stacks must have been used.
	for i, st := range senders {
		if st.Node().Delivered == 0 {
			t.Fatalf("sender %d never received acks (unused)", i)
		}
	}
}
