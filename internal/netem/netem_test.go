package netem

import (
	"math"
	"testing"
	"testing/quick"
	"time"

	"bufferqoe/internal/sim"
)

// sink records delivered packets with their arrival times.
type sink struct {
	eng  *sim.Engine
	pkts []*Packet
	ats  []sim.Time
}

func (s *sink) Receive(p *Packet) {
	s.pkts = append(s.pkts, p)
	s.ats = append(s.ats, s.eng.Now())
}

func mkpkt(size int) *Packet {
	return &Packet{
		Flow: Flow{Proto: ProtoUDP, Src: Addr{1, 10}, Dst: Addr{2, 20}},
		Size: size,
	}
}

func TestDropTailFIFO(t *testing.T) {
	q := NewDropTail(4)
	var now sim.Time
	for i := 0; i < 4; i++ {
		p := mkpkt(100 + i)
		if !q.Enqueue(p, now) {
			t.Fatalf("enqueue %d rejected", i)
		}
	}
	if q.Len() != 4 {
		t.Fatalf("len = %d", q.Len())
	}
	if q.Enqueue(mkpkt(999), now) {
		t.Fatal("overfull enqueue accepted")
	}
	for i := 0; i < 4; i++ {
		p := q.Dequeue(now)
		if p.Size != 100+i {
			t.Fatalf("FIFO violated: got size %d at pos %d", p.Size, i)
		}
	}
	if q.Dequeue(now) != nil {
		t.Fatal("dequeue from empty returned packet")
	}
}

func TestDropTailBytes(t *testing.T) {
	q := NewDropTail(10)
	q.Enqueue(mkpkt(100), 0)
	q.Enqueue(mkpkt(200), 0)
	if q.Bytes() != 300 {
		t.Fatalf("bytes = %d", q.Bytes())
	}
	q.Dequeue(0)
	if q.Bytes() != 200 {
		t.Fatalf("bytes after dequeue = %d", q.Bytes())
	}
}

// Property: a drop-tail queue never exceeds its capacity and preserves
// FIFO order, for any interleaving of enqueues and dequeues.
func TestPropertyDropTailInvariants(t *testing.T) {
	f := func(ops []bool, capacity uint8) bool {
		c := int(capacity%32) + 1
		q := NewDropTail(c)
		nextID := uint64(0)
		lastOut := uint64(0)
		for _, enq := range ops {
			if enq {
				nextID++
				p := mkpkt(100)
				p.ID = nextID
				q.Enqueue(p, 0)
			} else if p := q.Dequeue(0); p != nil {
				if p.ID <= lastOut {
					return false // order violated
				}
				lastOut = p.ID
			}
			if q.Len() > c || q.Len() < 0 {
				return false
			}
			if q.Bytes() != q.Len()*100 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestLinkSerializationAndPropagation(t *testing.T) {
	eng := sim.New()
	s := &sink{eng: eng}
	// 8 Mbit/s, 10 ms propagation: a 1000-byte packet serializes in
	// 1 ms and arrives at 11 ms.
	l := NewLink(eng, "test", 8e6, 10*time.Millisecond, NewDropTail(10), s)
	p := mkpkt(1000)
	p.Created = eng.Now()
	l.Send(p)
	eng.Run()
	if len(s.pkts) != 1 {
		t.Fatalf("delivered %d packets", len(s.pkts))
	}
	want := sim.Time(11 * time.Millisecond)
	if s.ats[0] != want {
		t.Fatalf("arrival at %v, want %v", s.ats[0], want)
	}
}

func TestLinkBackToBackPackets(t *testing.T) {
	eng := sim.New()
	s := &sink{eng: eng}
	l := NewLink(eng, "test", 8e6, 0, NewDropTail(10), s)
	for i := 0; i < 3; i++ {
		l.Send(mkpkt(1000))
	}
	eng.Run()
	// Serialization is 1 ms each; arrivals at 1, 2, 3 ms.
	for i, at := range s.ats {
		want := sim.Time(time.Duration(i+1) * time.Millisecond)
		if at != want {
			t.Fatalf("pkt %d arrived at %v, want %v", i, at, want)
		}
	}
}

func TestLinkInfiniteRateIsPureDelay(t *testing.T) {
	eng := sim.New()
	s := &sink{eng: eng}
	l := NewLink(eng, "delaybox", 0, 30*time.Millisecond, nil, s)
	for i := 0; i < 5; i++ {
		l.Send(mkpkt(1500))
	}
	eng.Run()
	for _, at := range s.ats {
		if at != sim.Time(30*time.Millisecond) {
			t.Fatalf("arrival at %v, want 30ms", at)
		}
	}
}

func TestLinkQueueOverflowDrops(t *testing.T) {
	eng := sim.New()
	s := &sink{eng: eng}
	l := NewLink(eng, "narrow", 8e6, 0, NewDropTail(2), s)
	accepted := 0
	for i := 0; i < 10; i++ {
		if l.Send(mkpkt(1000)) {
			accepted++
		}
	}
	eng.Run()
	// One in service + 2 queued = 3 accepted.
	if accepted != 3 {
		t.Fatalf("accepted = %d, want 3", accepted)
	}
	if len(s.pkts) != 3 {
		t.Fatalf("delivered = %d, want 3", len(s.pkts))
	}
}

func TestQueueMonitorDelays(t *testing.T) {
	eng := sim.New()
	s := &sink{eng: eng}
	q := NewDropTail(100)
	mon := &QueueMonitor{Name: "q"}
	q.Monitor = mon
	l := NewLink(eng, "l", 8e6, 0, q, s)
	// 4 packets of 1000 B: queueing delays 0, 1, 2, 3 ms.
	for i := 0; i < 4; i++ {
		l.Send(mkpkt(1000))
	}
	eng.Run()
	if mon.Dequeued != 4 {
		t.Fatalf("dequeued = %d", mon.Dequeued)
	}
	if got := mon.MeanDelayMs(); math.Abs(got-1.5) > 1e-9 {
		t.Fatalf("mean delay = %v ms, want 1.5", got)
	}
	if mon.LossRate() != 0 {
		t.Fatalf("loss = %v", mon.LossRate())
	}
}

func TestQueueMonitorLoss(t *testing.T) {
	eng := sim.New()
	s := &sink{eng: eng}
	q := NewDropTail(1)
	mon := &QueueMonitor{}
	q.Monitor = mon
	l := NewLink(eng, "l", 8e6, 0, q, s)
	for i := 0; i < 4; i++ {
		l.Send(mkpkt(1000))
	}
	eng.Run()
	// 2 accepted (1 in service + 1 queued), 2 dropped.
	if mon.Dropped != 2 {
		t.Fatalf("dropped = %d, want 2", mon.Dropped)
	}
	if got := mon.LossRate(); math.Abs(got-0.5) > 1e-9 {
		t.Fatalf("loss rate = %v, want 0.5", got)
	}
}

func TestLinkMonitorUtilization(t *testing.T) {
	eng := sim.New()
	s := &sink{eng: eng}
	l := NewLink(eng, "l", 8e6, 0, NewDropTail(1000), s)
	l.EnsureMonitor().StartSampling(eng, 100*time.Millisecond)
	// Send 1000 B every ms for 1 s => 8 Mbit/s exactly => 100% util.
	for i := 0; i < 1000; i++ {
		d := time.Duration(i) * time.Millisecond
		eng.ScheduleHandler(d, sim.Func(func() { l.Send(mkpkt(1000)) }))
	}
	eng.RunUntil(sim.Time(1 * time.Second))
	if got := l.Monitor.MeanUtilization(eng.Now()); math.Abs(got-100) > 1.0 {
		t.Fatalf("utilization = %v%%, want ~100%%", got)
	}
	if l.Monitor.UtilSamples.N() < 9 {
		t.Fatalf("too few samples: %d", l.Monitor.UtilSamples.N())
	}
}

func TestNodeLocalDelivery(t *testing.T) {
	eng := sim.New()
	nw := NewNetwork(eng)
	a := nw.NewNode("a")
	b := nw.NewNode("b")
	nw.Connect(a, b, 1e9, time.Millisecond, 100)

	var got []*Packet
	b.Bind(ProtoUDP, 5000, HandlerFunc(func(p *Packet) { got = append(got, p) }))
	p := &Packet{
		Flow: Flow{Proto: ProtoUDP, Src: a.Addr(1234), Dst: b.Addr(5000)},
		Size: 200,
	}
	a.Send(p)
	eng.Run()
	if len(got) != 1 {
		t.Fatalf("delivered %d", len(got))
	}
	if b.Delivered != 1 {
		t.Fatalf("node counter = %d", b.Delivered)
	}
}

func TestNodeForwarding(t *testing.T) {
	eng := sim.New()
	nw := NewNetwork(eng)
	a := nw.NewNode("a")
	r := nw.NewNode("router")
	b := nw.NewNode("b")
	nw.Connect(a, r, 1e9, time.Millisecond, 100)
	rb, _ := nw.Connect(r, b, 1e9, time.Millisecond, 100)
	_ = rb
	a.SetDefaultRoute(a.routes[r.ID])
	r.SetRoute(b.ID, r.routes[b.ID])

	var got []*Packet
	b.Bind(ProtoUDP, 80, HandlerFunc(func(p *Packet) { got = append(got, p) }))
	p := &Packet{
		Flow: Flow{Proto: ProtoUDP, Src: a.Addr(1), Dst: b.Addr(80)},
		Size: 100,
	}
	a.Send(p)
	eng.Run()
	if len(got) != 1 {
		t.Fatalf("delivered %d", len(got))
	}
	if r.Forwarded != 1 {
		t.Fatalf("router forwarded = %d", r.Forwarded)
	}
}

func TestNodeUndeliverable(t *testing.T) {
	eng := sim.New()
	nw := NewNetwork(eng)
	a := nw.NewNode("a")
	b := nw.NewNode("b")
	nw.Connect(a, b, 1e9, 0, 10)
	p := &Packet{Flow: Flow{Proto: ProtoUDP, Src: a.Addr(1), Dst: b.Addr(99)}, Size: 50}
	a.Send(p)
	eng.Run()
	if b.Undeliverable != 1 {
		t.Fatalf("undeliverable = %d", b.Undeliverable)
	}
}

func TestAllocPortSkipsBound(t *testing.T) {
	eng := sim.New()
	nw := NewNetwork(eng)
	a := nw.NewNode("a")
	a.Bind(ProtoTCP, 10001, HandlerFunc(func(*Packet) {}))
	a.nextPort = 10000
	p := a.AllocPort(ProtoTCP)
	if p == 10001 {
		t.Fatal("allocated a bound port")
	}
}

func TestFlowReverse(t *testing.T) {
	f := Flow{Proto: ProtoTCP, Src: Addr{1, 10}, Dst: Addr{2, 20}}
	r := f.Reverse()
	if r.Src != f.Dst || r.Dst != f.Src || r.Proto != f.Proto {
		t.Fatalf("reverse = %+v", r)
	}
	if r.Reverse() != f {
		t.Fatal("double reverse != identity")
	}
}

func TestFlowAsMapKey(t *testing.T) {
	m := map[Flow]int{}
	f := Flow{Proto: ProtoTCP, Src: Addr{1, 10}, Dst: Addr{2, 20}}
	m[f] = 7
	if m[Flow{Proto: ProtoTCP, Src: Addr{1, 10}, Dst: Addr{2, 20}}] != 7 {
		t.Fatal("flow map key equality failed")
	}
}

func TestTransmissionTime(t *testing.T) {
	eng := sim.New()
	l := NewLink(eng, "l", 1e6, 0, NewDropTail(8), &sink{eng: eng})
	// 1500 B at 1 Mbit/s = 12 ms — the per-packet delay behind the
	// paper's Table 2 uplink numbers.
	if got := l.TransmissionTime(1500); got != 12*time.Millisecond {
		t.Fatalf("tx time = %v, want 12ms", got)
	}
}

func TestDoubleBindPanics(t *testing.T) {
	eng := sim.New()
	nw := NewNetwork(eng)
	a := nw.NewNode("a")
	a.Bind(ProtoUDP, 9, HandlerFunc(func(*Packet) {}))
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on double bind")
		}
	}()
	a.Bind(ProtoUDP, 9, HandlerFunc(func(*Packet) {}))
}
