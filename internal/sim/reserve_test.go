package sim

import (
	"testing"
	"time"
)

// TestReservedSeqOrdersAtReservation is the rule the delay lines and
// the self-clocked media senders rest on: an owned timer armed under a
// reserved number fires where a one-shot scheduled at reservation
// time would have — before everything drawn later for the same
// instant, however late the arming happens.
func TestReservedSeqOrdersAtReservation(t *testing.T) {
	e := New()
	var got []int
	rec := func(i int) Func { return func() { got = append(got, i) } }
	var ot Timer
	e.InitTimer(&ot, rec(1))
	at := Time(time.Millisecond)

	e.AtHandler(at, rec(0))
	seq := e.ReserveSeq(1)
	e.AtHandler(at, rec(2))
	e.AtHandler(at, rec(3))
	ot.ResetAtSeq(at, seq) // armed last, ordered second
	e.Run()
	if len(got) != 4 {
		t.Fatalf("fired %d events, want 4", len(got))
	}
	for i := range got {
		if got[i] != i {
			t.Fatalf("order = %v, want 0 1 2 3", got)
		}
	}
}

// TestReserveSeqBlock checks that a block is consecutive, that later
// draws continue after it, and that an empty block draws nothing.
func TestReserveSeqBlock(t *testing.T) {
	e := New()
	first := e.ReserveSeq(3)
	if first != 1 {
		t.Fatalf("first reserved number = %d, want 1", first)
	}
	if next := e.ReserveSeq(0); next != 4 {
		t.Fatalf("empty reservation returned %d, want 4", next)
	}
	if next := e.ReserveSeq(1); next != 4 {
		t.Fatalf("number after the block = %d, want 4", next)
	}
}

// TestReservedBlockMatchesPooledEvents replays a pre-scheduled stream
// (one pooled one-shot per tick, as the media senders used to do) and its
// self-clocked twin (one reserved block, one owned timer walking it)
// against the same competing same-instant events, and requires the
// same global firing order and the same Executed count.
func TestReservedBlockMatchesPooledEvents(t *testing.T) {
	const ticks = 20
	at := func(i int) Time { return Time(time.Duration(i/3) * time.Millisecond) } // runs of equal times
	run := func(selfClocked bool) (order []int, executed uint64, highWater int) {
		e := New()
		rival := func(i int) Func { return func() { order = append(order, i) } }
		for i := 0; i < ticks; i++ {
			e.AtHandler(at(i), rival(1000+i)) // drawn before the stream
		}
		if selfClocked {
			var tm Timer
			next := 0
			seq0 := uint64(0)
			e.InitTimer(&tm, Func(func() {
				i := next
				next++
				if next < ticks {
					tm.ResetAtSeq(at(next), seq0+uint64(next))
				}
				order = append(order, i)
			}))
			seq0 = e.ReserveSeq(ticks)
			tm.ResetAtSeq(at(0), seq0)
		} else {
			for i := 0; i < ticks; i++ {
				e.AtHandler(at(i), rival(i))
			}
		}
		for i := 0; i < ticks; i++ {
			e.AtHandler(at(i), rival(2000+i)) // drawn after the stream
		}
		e.Run()
		return order, e.Executed, e.Metrics().HeapHighWater
	}
	want, wantExec, deep := run(false)
	got, gotExec, shallow := run(true)
	if gotExec != wantExec {
		t.Fatalf("Executed = %d, pre-scheduled reference %d", gotExec, wantExec)
	}
	if len(got) != len(want) {
		t.Fatalf("fired %d events, reference %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("event %d: got %d, reference %d\n got %v\nwant %v", i, got[i], want[i], got, want)
		}
	}
	if shallow != deep-ticks+1 {
		t.Fatalf("heap high water = %d self-clocked vs %d pre-scheduled, want %d fewer", shallow, deep, ticks-1)
	}
}

func TestResetAtSeqStopAndRearm(t *testing.T) {
	e := New()
	h := &countingHandler{}
	var tm Timer
	e.InitTimer(&tm, h)
	seq := e.ReserveSeq(2)
	tm.ResetAtSeq(Time(time.Second), seq)
	if !tm.Stop() {
		t.Fatal("Stop on a timer armed with ResetAtSeq returned false")
	}
	e.RunFor(2 * time.Second)
	if h.n != 0 {
		t.Fatal("stopped timer fired")
	}
	tm.ResetAtSeq(Time(3*time.Second), seq+1)
	if !tm.Armed() {
		t.Fatal("re-arm after Stop left the timer unarmed")
	}
	e.Run()
	if h.n != 1 || h.last != Time(3*time.Second) {
		t.Fatalf("re-armed timer fired %d times, last at %v; want once at 3s", h.n, h.last)
	}
}

func TestResetAtSeqClampsPastToNow(t *testing.T) {
	e := New()
	h := &countingHandler{}
	var tm Timer
	e.InitTimer(&tm, h)
	e.RunUntil(Time(time.Second))
	tm.ResetAtSeq(Time(time.Millisecond), e.ReserveSeq(1))
	if tm.When() != Time(time.Second) {
		t.Fatalf("armed for %v, want clamped to now (1s)", tm.When())
	}
	e.Run()
	if h.n != 1 || h.last != Time(time.Second) {
		t.Fatalf("fired %d times, last at %v; want once at 1s", h.n, h.last)
	}
}

// TestEngineResetUnhooksReservedTimer checks carcass reuse: an owned
// timer left armed under a reserved number is off the heap after
// Engine.Reset and can be armed again on the rewound engine.
func TestEngineResetUnhooksReservedTimer(t *testing.T) {
	e := New()
	h := &countingHandler{}
	var tm Timer
	e.InitTimer(&tm, h)
	tm.ResetAtSeq(Time(time.Second), e.ReserveSeq(1))
	e.Reset()
	if tm.Armed() || e.Pending() != 0 {
		t.Fatalf("after Reset: armed=%v pending=%d", tm.Armed(), e.Pending())
	}
	e.Run()
	if h.n != 0 {
		t.Fatal("timer discarded by Reset fired")
	}
	if first := e.ReserveSeq(1); first != 1 {
		t.Fatalf("sequence counter not rewound: first number %d", first)
	}
	tm.ResetAtSeq(Time(time.Millisecond), 1)
	e.Run()
	if h.n != 1 {
		t.Fatalf("timer re-armed after Reset fired %d times, want 1", h.n)
	}
}

func TestResetAtSeqRejectsUnreservedNumber(t *testing.T) {
	e := New()
	var tm Timer
	e.InitTimer(&tm, &countingHandler{})
	for _, seq := range []uint64{0, 1} { // nothing reserved yet
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("ResetAtSeq(seq=%d) on a fresh engine did not panic", seq)
				}
			}()
			tm.ResetAtSeq(0, seq)
		}()
	}
}
