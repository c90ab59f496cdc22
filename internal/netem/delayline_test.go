package netem

import (
	"fmt"
	"testing"
	"time"

	"bufferqoe/internal/sim"
)

// pusher is what a hop's propagation stage offers its hop; DelayLine
// and the reference below both satisfy it.
type pusher interface {
	Push(p *Packet, at sim.Time)
}

// pooledLine is the propagation stage DelayLine replaced, kept as the
// reference: one pooled one-shot per packet in flight, keyed by the
// sequence number drawn at push time.
type pooledLine struct {
	eng *sim.Engine
	dst Receiver
}

func (r *pooledLine) Push(p *Packet, at sim.Time) {
	r.eng.AtHandler(at, sim.Func(func() { r.dst.Receive(p) }))
}

// delivery is one line of the trace the two implementations must
// agree on. Rival events log receiver -1.
type delivery struct {
	at   sim.Time
	recv int
	id   uint64
}

// tracer is the receiver behind line recv. Every fifth packet on line
// 0 makes it send again from inside Receive: back into its own line
// (re-entrant push while that line's Fire is on the stack) and into
// line 1.
type tracer struct {
	eng    *sim.Engine
	recv   int
	log    *[]delivery
	lines  []pusher
	delays []time.Duration
}

func (t *tracer) Receive(p *Packet) {
	*t.log = append(*t.log, delivery{t.eng.Now(), t.recv, p.ID})
	if t.recv == 0 && p.ID%5 == 0 && p.ID < 1<<20 {
		for _, to := range []int{0, 1} {
			echo := &Packet{ID: p.ID + uint64(to+1)<<20}
			t.lines[to].Push(echo, t.eng.Now().Add(t.delays[to]))
		}
	}
}

// runLines drives four lines (delays 0, 50 µs, 3 ms, 40 ms) with a
// seeded stream of sends drawn on a coarse time grid, so sends,
// deliveries and rival events keep landing on the same instant. Phase
// one trickles (the 16-slot rings wrap many times), phase two bursts
// (the rings grow while their heads are mid-array).
func runLines(seed uint64, mk func(*sim.Engine, Receiver) pusher) (trace []delivery, executed uint64, lines []pusher) {
	eng := sim.New()
	rng := sim.NewRNG(seed, "delayline-test")
	delays := []time.Duration{0, 50 * time.Microsecond, 3 * time.Millisecond, 40 * time.Millisecond}
	lines = make([]pusher, len(delays))
	for i := range delays {
		tr := &tracer{eng: eng, recv: i, log: &trace, lines: lines, delays: delays}
		lines[i] = mk(eng, tr)
	}
	rival := func(at sim.Time, id uint64) {
		eng.AtHandler(at, sim.Func(func() { trace = append(trace, delivery{eng.Now(), -1, id}) }))
	}
	const grid = 50 * time.Microsecond
	var id uint64
	send := func(at sim.Time) {
		id++
		pid, li := id, rng.IntN(len(lines))
		due := at.Add(delays[li])
		rival(due, pid+1<<40) // drawn before the delivery's number
		eng.AtHandler(at, sim.Func(func() {
			lines[li].Push(&Packet{ID: pid}, eng.Now().Add(delays[li]))
			rival(due, pid+2<<40) // drawn right after it
		}))
	}
	var at sim.Time
	for i := 0; i < 600; i++ { // trickle
		at = at.Add(time.Duration(rng.IntN(8)) * grid)
		send(at)
	}
	for i := 0; i < 900; i++ { // burst: hundreds in flight on the 40 ms line
		at = at.Add(time.Duration(rng.IntN(2)) * grid)
		send(at)
	}
	eng.Run()
	return trace, eng.Executed, lines
}

// TestDelayLineMatchesPooledEvents is the differential order test: the
// ring with one reserved-sequence timer must produce the same global
// (time, receiver, packet) trace, rivals included, and fire the same
// number of events as one pooled event per packet.
func TestDelayLineMatchesPooledEvents(t *testing.T) {
	for seed := uint64(1); seed <= 5; seed++ {
		want, wantExec, _ := runLines(seed, func(e *sim.Engine, dst Receiver) pusher {
			return &pooledLine{eng: e, dst: dst}
		})
		got, gotExec, lines := runLines(seed, func(e *sim.Engine, dst Receiver) pusher {
			d := &DelayLine{}
			d.Init(e, dst)
			return d
		})
		if gotExec != wantExec {
			t.Fatalf("seed %d: Executed = %d, reference %d", seed, gotExec, wantExec)
		}
		if len(got) != len(want) {
			t.Fatalf("seed %d: %d trace entries, reference %d", seed, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("seed %d: entry %d = %+v, reference %+v", seed, i, got[i], want[i])
			}
		}
		// The scenario must have exercised what it claims to.
		slow := lines[3].(*DelayLine)
		if len(slow.ring) <= minDelayRing {
			t.Fatalf("seed %d: the 40 ms line never grew past %d slots", seed, minDelayRing)
		}
		if fast := lines[1].(*DelayLine); len(fast.ring) != minDelayRing {
			t.Fatalf("seed %d: the 50 µs line grew to %d slots; it should have wrapped in %d", seed, len(fast.ring), minDelayRing)
		}
		for i, l := range lines {
			if d := l.(*DelayLine); d.n != 0 || d.timer.Armed() {
				t.Fatalf("seed %d: line %d not drained: %d in flight, armed=%v", seed, i, d.n, d.timer.Armed())
			}
		}
	}
}

// TestDelayLineHoldsOneHeapEntry pins the point of the exercise: the
// engine sees one timer per line, not one per packet.
func TestDelayLineHoldsOneHeapEntry(t *testing.T) {
	eng := sim.New()
	s := &sink{eng: eng}
	var d DelayLine
	d.Init(eng, s)
	for i := 0; i < 500; i++ {
		d.Push(mkpkt(100), eng.Now().Add(time.Second))
	}
	if eng.Pending() != 1 || d.n != 500 {
		t.Fatalf("pending = %d, in flight = %d; want 1 and 500", eng.Pending(), d.n)
	}
	eng.Run()
	if len(s.pkts) != 500 || eng.Executed != 500 {
		t.Fatalf("delivered %d packets in %d events, want 500 and 500", len(s.pkts), eng.Executed)
	}
}

func TestDelayLineRejectsDecreasingTimes(t *testing.T) {
	eng := sim.New()
	var d DelayLine
	d.Init(eng, &sink{eng: eng})
	d.Push(mkpkt(1), sim.Time(2*time.Millisecond))
	defer func() {
		if recover() == nil {
			t.Fatal("a push that would overtake the packet ahead did not panic")
		}
	}()
	d.Push(mkpkt(1), sim.Time(time.Millisecond))
}

// releasingSink consumes packets the way a host does.
type releasingSink struct{ n int }

func (s *releasingSink) Receive(p *Packet) { s.n++; p.Release() }

// TestDelayLineResetReleasesInFlight checks carcass reuse in both
// orders the testbed can run it (engine rewound first, or not): every
// packet still propagating returns to the pool, PacketRecycles counts
// it, the delivery timer is off the heap, and the line works again.
func TestDelayLineResetReleasesInFlight(t *testing.T) {
	for _, engineFirst := range []bool{true, false} {
		t.Run(fmt.Sprintf("engineFirst=%v", engineFirst), func(t *testing.T) {
			eng := sim.New()
			nw := NewNetwork(eng)
			s := &releasingSink{}
			var d DelayLine
			d.Init(eng, s)
			const sent = 40 // > minDelayRing: the ring has grown
			for i := 0; i < sent; i++ {
				d.Push(nw.NewPacket(), sim.Time(time.Duration(i)*time.Millisecond))
			}
			eng.RunUntil(sim.Time(9 * time.Millisecond))
			if s.n != 10 || nw.PacketRecycles() != 10 {
				t.Fatalf("mid-run: delivered %d, recycled %d; want 10 and 10", s.n, nw.PacketRecycles())
			}
			if engineFirst {
				eng.Reset()
			}
			d.Reset()
			if got := nw.PacketRecycles(); got != sent {
				t.Fatalf("after Reset: %d packets recycled, want all %d", got, sent)
			}
			if d.n != 0 || d.timer.Armed() || eng.Pending() != 0 {
				t.Fatalf("after Reset: %d in flight, armed=%v, %d pending", d.n, d.timer.Armed(), eng.Pending())
			}
			if len(nw.pktFree) != sent {
				t.Fatalf("free-list holds %d packets, want %d", len(nw.pktFree), sent)
			}
			d.Push(nw.NewPacket(), eng.Now().Add(time.Millisecond))
			d.Push(nw.NewPacket(), eng.Now().Add(time.Millisecond))
			eng.Run()
			if s.n != 12 {
				t.Fatalf("line delivered %d packets after reuse, want 12", s.n)
			}
		})
	}
}
