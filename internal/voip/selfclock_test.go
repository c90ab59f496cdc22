package voip

import (
	"testing"
	"time"

	"bufferqoe/internal/netem"
	"bufferqoe/internal/sim"
)

// sendLog is what the self-clocked sender and the reference must agree
// on: every send tick and every rival event, in global firing order.
// Rivals log frame -1-k.
type sendLog []struct {
	at    sim.Time
	frame int
}

func (l *sendLog) add(at sim.Time, frame int) {
	*l = append(*l, struct {
		at    sim.Time
		frame int
	}{at, frame})
}

// wire is the sender's first hop: it logs what leaves and consumes it.
type wire struct {
	eng *sim.Engine
	log *sendLog
}

func (w wire) Send(p *netem.Packet) bool {
	w.log.add(w.eng.Now(), p.Payload.(*rtp).seq)
	p.Release()
	return true
}

type rivalTick struct {
	log *sendLog
	id  int
}

func (r rivalTick) Fire(now sim.Time) { r.log.add(now, r.id) }

// TestSelfClockedSendsMatchPrescheduling starts a call mid-run between
// two batches of rival events that land on the frame instants, once
// with the real sender and once with the old pre-scheduling loop, and
// requires the same (time, frame) trace, the same event count and a
// heap that no longer holds the whole call.
func TestSelfClockedSendsMatchPrescheduling(t *testing.T) {
	active := Activity(1, 0)
	n := len(active)
	const offset = 7 * time.Millisecond
	run := func(selfClocked bool) (sendLog, uint64, int) {
		eng := sim.New()
		var log sendLog
		eng.RunUntil(sim.Time(offset))
		rivals := func(base int) {
			for k := 0; k < n; k += 3 {
				eng.ScheduleHandler(time.Duration(k)*FrameInterval, rivalTick{&log, base - k})
			}
		}
		rivals(-1) // drawn before the call's block
		if selfClocked {
			nw := netem.NewNetwork(eng)
			from, to := nw.NewNode("from"), nw.NewNode("to")
			from.SetDefaultRoute(wire{eng, &log})
			Start(from, to, active, 0, nil)
		} else {
			// The sender Call used to be, kept as the reference: one
			// pooled one-shot per frame, all scheduled at call start.
			for i := 0; i < n; i++ {
				eng.ScheduleHandler(time.Duration(i)*FrameInterval, sim.Func(func() { log.add(eng.Now(), i) }))
			}
			eng.ScheduleHandler(time.Duration(n)*FrameInterval+DefaultPlayout+5*time.Second, rivalTick{&log, -1 << 30})
		}
		rivals(-1 - 1<<20) // drawn after it
		eng.RunFor(time.Duration(n) * FrameInterval)
		return log, eng.Executed, eng.Metrics().HeapHighWater
	}
	want, wantExec, deep := run(false)
	got, gotExec, shallow := run(true)
	if gotExec != wantExec {
		t.Fatalf("Executed = %d, pre-scheduled reference %d", gotExec, wantExec)
	}
	if len(got) != len(want) {
		t.Fatalf("%d trace entries, reference %d", len(got), len(want))
	}
	sends := 0
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("entry %d = %+v, reference %+v", i, got[i], want[i])
		}
		if f := got[i].frame; f >= 0 {
			if wantAt := sim.Time(offset + time.Duration(f)*FrameInterval); got[i].at != wantAt || f != sends {
				t.Fatalf("send %d: frame %d at %v, want frame %d at %v", sends, f, got[i].at, sends, wantAt)
			}
			sends++
		}
	}
	if sends != n {
		t.Fatalf("%d frames sent, want %d", sends, n)
	}
	if shallow != deep-n+1 {
		t.Fatalf("heap high water %d self-clocked vs %d pre-scheduled: the call should cost one entry, not %d", shallow, deep, n)
	}
}
