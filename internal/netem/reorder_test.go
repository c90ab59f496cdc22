package netem

import (
	"fmt"
	"testing"
	"time"

	"bufferqoe/internal/sim"
)

// orderSink records the IDs of packets in delivery order.
type orderSink struct{ ids []uint64 }

func (s *orderSink) Receive(p *Packet) { s.ids = append(s.ids, p.ID) }

// feedReorder pushes n packets, one per millisecond, through a
// ReorderBox with the given probability and seed and returns the
// delivery order.
func feedReorder(n int, prob float64, seed uint64) []uint64 {
	eng := sim.New()
	sink := &orderSink{}
	feed(eng, NewReorderBox(eng, sim.NewRNG(seed, "reorder-test"), prob, sink), n)
	return sink.ids
}

// feed pushes n packets, one per millisecond, through rb and runs the
// engine until they are all delivered.
func feed(eng *sim.Engine, rb *ReorderBox, n int) {
	for i := 0; i < n; i++ {
		p := &Packet{ID: uint64(i + 1), Size: 1500}
		eng.ScheduleHandler(time.Duration(i)*time.Millisecond, sim.Func(func() { rb.Receive(p) }))
	}
	eng.RunFor(time.Second)
}

func inversions(ids []uint64) int {
	inv := 0
	for i := 1; i < len(ids); i++ {
		if ids[i] < ids[i-1] {
			inv++
		}
	}
	return inv
}

func TestReorderBoxZeroProbPreservesOrder(t *testing.T) {
	ids := feedReorder(200, 0, 1)
	if len(ids) != 200 {
		t.Fatalf("delivered %d of 200", len(ids))
	}
	if inversions(ids) != 0 {
		t.Fatal("zero-probability box reordered packets")
	}
}

func TestReorderBoxActuallyReorders(t *testing.T) {
	ids := feedReorder(500, 0.2, 7)
	if len(ids) != 500 {
		t.Fatalf("delivered %d of 500", len(ids))
	}
	if inversions(ids) == 0 {
		t.Fatal("20%% reorder probability produced zero inversions")
	}
}

func TestReorderBoxDeterministic(t *testing.T) {
	a := feedReorder(300, 0.1, 42)
	b := feedReorder(300, 0.1, 42)
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("delivery order diverges at %d: %d vs %d", i, a[i], b[i])
		}
	}
	// A different seed must (with overwhelming probability) produce a
	// different order.
	c := feedReorder(300, 0.1, 43)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("independent seeds produced identical reorderings")
	}
}

func TestReorderBoxNoLoss(t *testing.T) {
	for _, prob := range []float64{0.01, 0.25, 0.9} {
		ids := feedReorder(250, prob, 5)
		if len(ids) != 250 {
			t.Fatalf("p=%v: delivered %d of 250", prob, len(ids))
		}
		seen := make(map[uint64]bool, len(ids))
		for _, id := range ids {
			if seen[id] {
				t.Fatalf("p=%v: duplicate delivery of packet %d", prob, id)
			}
			seen[id] = true
		}
	}
}

// TestReorderBoxReset checks that a reset box is the box NewReorderBox
// builds: the new probability, and the delivery order of the new RNG
// stream.
func TestReorderBoxReset(t *testing.T) {
	want := feedReorder(300, 0.1, 42)
	eng := sim.New()
	sink := &orderSink{}
	rb := NewReorderBox(eng, sim.NewRNG(1, "a"), 0.5, sink)
	rb.Reset(sim.NewRNG(42, "reorder-test"), 0.1)
	if rb.Prob != 0.1 {
		t.Fatalf("Reset left Prob=%v", rb.Prob)
	}
	feed(eng, rb, len(want))
	if fmt.Sprint(sink.ids) != fmt.Sprint(want) {
		t.Fatalf("reset box delivered\n%v\nfresh box\n%v", sink.ids, want)
	}
}

// oneShotReorder is the ReorderBox the two delay lines replaced, kept
// as the reference: one pooled one-shot per packet, due now or
// ReorderLag later.
type oneShotReorder struct {
	eng  *sim.Engine
	rng  *sim.RNG
	prob float64
	dst  Receiver
}

func (r *oneShotReorder) Receive(p *Packet) {
	var d time.Duration
	if r.rng.Bool(r.prob) {
		d = ReorderLag
	}
	r.eng.ScheduleHandler(d, sim.Func(func() { r.dst.Receive(p) }))
}

// runReorder drives one box with a seeded stream of sends on a 500 µs
// grid, so sends, on-time deliveries, held deliveries (ten grid steps
// later) and rival events keep landing on the same instant. Rivals are
// drawn before each send and right after it, at the send instant and
// at the instant a held packet would leave; every seventh delivery is
// sent through the box again from inside the receiver. The trace holds
// packet IDs and rival IDs (high bits set) in firing order.
func runReorder(seed uint64, prob float64, mk func(*sim.Engine, *sim.RNG, Receiver) Receiver) (trace []delivery, executed uint64) {
	eng := sim.New()
	sched := sim.NewRNG(seed, "reorder-sends")
	var box Receiver
	box = mk(eng, sim.NewRNG(seed, "reorder-box"), recvFunc(func(p *Packet) {
		trace = append(trace, delivery{eng.Now(), 0, p.ID})
		if p.ID%7 == 0 && p.ID < 1<<20 {
			box.Receive(&Packet{ID: p.ID | 1<<20})
		}
	}))
	rival := func(at sim.Time, id uint64) {
		eng.AtHandler(at, sim.Func(func() { trace = append(trace, delivery{eng.Now(), -1, id}) }))
	}
	var at sim.Time
	for id := uint64(1); id <= 1500; id++ {
		at = at.Add(time.Duration(sched.IntN(3)) * 500 * time.Microsecond)
		rival(at, id|1<<40)
		rival(at.Add(ReorderLag), id|2<<40)
		eng.AtHandler(at, sim.Func(func() {
			box.Receive(&Packet{ID: id})
			rival(eng.Now(), id|3<<40)
			rival(eng.Now().Add(ReorderLag), id|4<<40)
		}))
	}
	eng.Run()
	return trace, eng.Executed
}

// TestReorderBoxMatchesOneShots is the differential order test: the box
// on two delay lines must deliver the same global trace, rivals
// included, and fire the same number of events as one pooled one-shot
// per packet.
func TestReorderBoxMatchesOneShots(t *testing.T) {
	for _, prob := range []float64{0, 0.2, 1} {
		for seed := uint64(1); seed <= 4; seed++ {
			want, wantExec := runReorder(seed, prob, func(e *sim.Engine, rng *sim.RNG, dst Receiver) Receiver {
				return &oneShotReorder{eng: e, rng: rng, prob: prob, dst: dst}
			})
			var held int
			got, gotExec := runReorder(seed, prob, func(e *sim.Engine, rng *sim.RNG, dst Receiver) Receiver {
				rb := NewReorderBox(e, rng, prob, dst)
				return recvFunc(func(p *Packet) {
					rb.Receive(p)
					held = max(held, rb.held.n)
				})
			})
			if gotExec != wantExec {
				t.Fatalf("p=%v seed %d: Executed = %d, reference %d", prob, seed, gotExec, wantExec)
			}
			if len(got) != len(want) {
				t.Fatalf("p=%v seed %d: %d trace entries, reference %d", prob, seed, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("p=%v seed %d: entry %d = %+v, reference %+v", prob, seed, i, got[i], want[i])
				}
			}
			if (held > 0) != (prob > 0) || prob == 1 && held <= minDelayRing {
				t.Fatalf("p=%v seed %d: at most %d packets held at once", prob, seed, held)
			}
		}
	}
}

// TestReorderBoxResetReturnsHeldPackets is the pool-balance check for
// carcass reuse, in both orders the testbed can run it: pooled packets
// still held in the box when it is reset go back to the pool, so
// PacketRecycles equals the packets sent.
func TestReorderBoxResetReturnsHeldPackets(t *testing.T) {
	for _, engineFirst := range []bool{true, false} {
		t.Run(fmt.Sprintf("engineFirst=%v", engineFirst), func(t *testing.T) {
			eng := sim.New()
			nw := NewNetwork(eng)
			s := &releasingSink{}
			rb := NewReorderBox(eng, sim.NewRNG(3, "reorder-reset"), 0.5, s)
			const sent = 60
			for i := 0; i < sent; i++ {
				eng.ScheduleHandler(time.Duration(i)*50*time.Microsecond, sim.Func(func() { rb.Receive(nw.NewPacket()) }))
			}
			eng.RunUntil(sim.Time(3 * time.Millisecond))
			if s.n == 0 || rb.held.n == 0 || s.n+rb.held.n != sent {
				t.Fatalf("before Reset: delivered %d, held %d; want some of each, %d in all", s.n, rb.held.n, sent)
			}
			if engineFirst {
				eng.Reset()
			}
			rb.Reset(sim.NewRNG(4, "reorder-reset"), 0.5)
			if got := nw.PacketRecycles(); got != sent {
				t.Fatalf("after Reset: %d packets recycled, want all %d", got, sent)
			}
			if eng.Pending() != 0 {
				t.Fatalf("after Reset: %d events pending", eng.Pending())
			}
		})
	}
}
