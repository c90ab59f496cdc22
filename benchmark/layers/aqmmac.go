package layers

import (
	"testing"
	"time"

	"bufferqoe/internal/aqm"
	"bufferqoe/internal/mac"
	"bufferqoe/internal/netem"
	"bufferqoe/internal/qoe"
	"bufferqoe/internal/sim"
	"bufferqoe/internal/video"
)

// queueOp times one dequeue and the one or two enqueues that feed it,
// on a queue of eight flows held near 32 packets, with 1.2 ms of
// simulated time between operations (an MTU at 10 Mbit/s), so the
// discipline's control law runs on sojourn times of tens of
// milliseconds — the regime where it marks and drops. While the
// discipline keeps the queue short, two packets arrive per departure,
// so it never runs idle.
func (s *prober) queueOp(q netem.Queue) float64 {
	pkts := make([]netem.Packet, 256)
	for i := range pkts {
		pkts[i] = netem.Packet{Size: netem.MTU, Flow: netem.Flow{
			Proto: netem.ProtoTCP,
			Src:   netem.Addr{Node: 1, Port: uint16(1000 + i%8)},
			Dst:   netem.Addr{Node: 2, Port: 80},
		}}
	}
	var now sim.Time
	next := 0
	offer := func() {
		q.Enqueue(&pkts[next%len(pkts)], now)
		next++
	}
	for i := 0; i < 32; i++ {
		offer()
	}
	return s.perOp(func() {
		now = now.Add(1200 * time.Microsecond)
		offer()
		if q.Len() < 32 {
			offer() // arrivals outrun the link while the queue is short
		}
		q.Dequeue(now)
	})
}

// aqmProbes times the five disciplines the off-paper workload uses.
func aqmProbes(s *prober) {
	const capacity, rate = 256, 10e6
	s.put("aqm.codel_op_ns", s.queueOp(aqm.NewCoDelForRate(capacity, rate)), "ns")
	s.put("aqm.fqcodel_op_ns", s.queueOp(aqm.NewFQCoDelForRate(capacity, rate)), "ns")
	s.put("aqm.pie_op_ns", s.queueOp(aqm.NewPIE(capacity, sim.NewRNG(42, "probe-pie"))), "ns")
	s.put("aqm.red_op_ns", s.queueOp(aqm.NewRED(capacity, sim.NewRNG(42, "probe-red"))), "ns")
	s.put("aqm.ared_op_ns", s.queueOp(aqm.NewARED(capacity, sim.NewRNG(42, "probe-ared"))), "ns")
}

// macProbes times the 802.11 link draining a saturated queue with
// four contending stations: host time per TXOP won (contention,
// collisions and retries included) and per frame delivered.
func macProbes(s *prober) {
	const backlog = 1024
	eng := sim.New()
	k := &sink{}
	w := mac.NewWifiLink(eng, "probe", mac.Params{PhyRate: 65e6, Delay: 100 * time.Microsecond, Stations: 4},
		sim.NewRNG(42, "probe-wifi"), netem.NewDropTail(backlog), mac.NewMedium(), k)
	pkts := make([]netem.Packet, backlog)
	for i := range pkts {
		pkts[i] = netem.Packet{Size: netem.MTU}
	}
	drain := func() {
		for i := range pkts {
			w.Send(&pkts[i])
		}
		eng.RunFor(10 * time.Second)
	}
	txops, frames := w.TxAggregates, w.TxFrames
	drain()
	txops, frames = w.TxAggregates-txops, w.TxFrames-frames
	if txops == 0 || frames == 0 {
		return
	}
	ns := s.perOp(drain)
	s.put("mac.txop_ns", ns/float64(txops), "ns")
	s.put("mac.frame_ns", ns/float64(frames), "ns")
	s.put("mac.txop_allocs", testing.AllocsPerRun(10, drain)/float64(txops), "allocs")
}

// qoeProbes times the three scoring models: the E-model mapping of a
// call, the G.1030 mapping of a page load time, and SSIM plus its MOS
// mapping on one SD frame.
func qoeProbes(s *prober) {
	var acc float64
	s.put("qoe.voip_score_ns", s.perOp(func() { acc += qoe.VoIPScore(4.1, 180*time.Millisecond) }), "ns")
	web := qoe.AccessWebModel()
	s.put("qoe.web_score_ns", s.perOp(func() { acc += web.MOS(2300 * time.Millisecond) }), "ns")
	ref := make([]uint8, video.SD.W*video.SD.H)
	deg := make([]uint8, len(ref))
	for i := range ref {
		ref[i] = uint8(i * 7)
		deg[i] = uint8(i*7 + i%5)
	}
	s.put("qoe.video_score_us", s.perOp(func() {
		acc += qoe.SSIMToMOS(qoe.SSIM(ref, deg, video.SD.W, video.SD.H))
	})/1e3, "us")
	_ = acc
}
