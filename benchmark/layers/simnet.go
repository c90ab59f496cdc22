package layers

import (
	"testing"
	"time"

	"bufferqoe/internal/netem"
	"bufferqoe/internal/sim"
	"bufferqoe/internal/stats"
	"bufferqoe/internal/testbed"
)

type tick struct{ n int }

func (h *tick) Fire(sim.Time) { h.n++ }

// simProbes times the event core on the handler tier: one pooled
// one-shot scheduled and fired, the same with 4096 timers pending (a
// backbone cell's heap depth), and an owned timer re-armed and
// stopped (what TCP's retransmission timer does per ACK).
func simProbes(s *prober) {
	h := &tick{}
	event := func(eng *sim.Engine) func() {
		return func() {
			eng.ScheduleHandler(time.Microsecond, h)
			eng.RunFor(2 * time.Microsecond)
		}
	}
	eng := sim.New()
	s.put("sim.event_ns", s.perOp(event(eng)), "ns")
	s.put("sim.event_allocs", testing.AllocsPerRun(1000, event(eng)), "allocs")

	deep := sim.New()
	pending := make([]sim.Timer, 4096)
	for i := range pending {
		deep.InitTimer(&pending[i], h)
		pending[i].Reset(1000*time.Hour + time.Duration(i)*time.Second)
	}
	s.put("sim.event_deep_ns", s.perOp(event(deep)), "ns")

	var owned sim.Timer
	eng.InitTimer(&owned, h)
	s.put("sim.timer_rearm_ns", s.perOp(func() {
		owned.Reset(time.Millisecond)
		owned.Stop()
	}), "ns")
}

type sink struct{ n int }

func (k *sink) Receive(*netem.Packet) { k.n++ }

// netemProbes times one MTU packet through a rate/delay link into a
// sink (enqueue, serialization event, delivery event) and one
// enqueue+dequeue on a drop-tail buffer.
func netemProbes(s *prober) {
	const burst = 64
	eng := sim.New()
	k := &sink{}
	link := netem.NewLink(eng, "probe", 100e6, time.Millisecond, netem.NewDropTail(256), k)
	pkts := make([]netem.Packet, burst)
	for i := range pkts {
		pkts[i] = netem.Packet{Size: netem.MTU}
	}
	hops := func() {
		for i := range pkts {
			link.Send(&pkts[i])
		}
		eng.RunFor(time.Second) // drain, so every packet takes the full path
	}
	s.put("netem.pkt_hop_ns", s.perOp(hops)/burst, "ns")
	s.put("netem.pkt_hop_allocs", testing.AllocsPerRun(100, hops)/burst, "allocs")

	q := netem.NewDropTail(256)
	for i := 0; i < burst/2; i++ {
		q.Enqueue(&pkts[i], 0)
	}
	p := &netem.Packet{Size: netem.MTU}
	s.put("netem.droptail_op_ns", s.perOp(func() {
		q.Enqueue(p, 0)
		p = q.Dequeue(0)
	}), "ns")
}

// testbedProbes times what a cell pays before its first event: the
// in-place reset of a worker's cached access carcass, and the cold
// structural build a worker pays once.
func testbedProbes(s *prober) {
	var scr testbed.Scratch
	cfg := testbed.Config{BufferUp: 64, BufferDown: 64, Seed: 42, Scratch: &scr}
	testbed.NewAccess(cfg)
	s.put("testbed.reset_ns", s.perOp(func() {
		scr.Reset()
		testbed.NewAccess(cfg)
	}), "ns")
	cold := testbed.Config{BufferUp: 64, BufferDown: 64, Seed: 42}
	s.put("testbed.cold_build_us", s.perOp(func() { testbed.NewAccess(cold) })/1e3, "us")
}

// statsProbes times one rep loop's bookkeeping: thirty observations
// into a reused sample and the median the cell reports.
func statsProbes(s *prober) {
	var sample stats.Sample
	s.put("stats.rep_loop_ns", s.perOp(func() {
		sample.Reset()
		for r := 0; r < 30; r++ {
			sample.Add(1 + float64(r%7)*0.42)
		}
		_ = sample.Median()
	}), "ns")
}
