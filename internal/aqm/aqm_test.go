package aqm

import (
	"testing"
	"time"

	"bufferqoe/internal/netem"
	"bufferqoe/internal/sim"
)

func pkt(size int) *netem.Packet {
	return &netem.Packet{Size: size}
}

func TestCoDelPassesLowDelayTraffic(t *testing.T) {
	c := NewCoDel(100)
	var now sim.Time
	for i := 0; i < 50; i++ {
		if !c.Enqueue(pkt(1500), now) {
			t.Fatal("enqueue rejected")
		}
		// Dequeue immediately: sojourn 0 < target.
		if c.Dequeue(now) == nil {
			t.Fatal("dequeue returned nil")
		}
		now = now.Add(time.Millisecond)
	}
	if c.Drops != 0 {
		t.Fatalf("CoDel dropped %d packets at zero sojourn", c.Drops)
	}
}

func TestCoDelDropsPersistentQueue(t *testing.T) {
	c := NewCoDel(1000)
	var now sim.Time
	// Fill a standing queue and drain it slowly so that sojourn stays
	// far above the 5 ms target for much longer than the interval.
	for i := 0; i < 500; i++ {
		c.Enqueue(pkt(1500), now)
		now = now.Add(time.Millisecond)
	}
	got := 0
	for i := 0; i < 400; i++ {
		now = now.Add(12 * time.Millisecond) // slow drain: 1500B at 1 Mbit/s
		if p := c.Dequeue(now); p != nil {
			got++
		}
	}
	if c.Drops == 0 {
		t.Fatal("CoDel never dropped despite persistent >5ms sojourn")
	}
	if got == 0 {
		t.Fatal("CoDel starved the link entirely")
	}
}

func TestCoDelOverflowStillBounded(t *testing.T) {
	c := NewCoDel(4)
	var now sim.Time
	acc := 0
	for i := 0; i < 10; i++ {
		if c.Enqueue(pkt(100), now) {
			acc++
		}
	}
	if acc != 4 {
		t.Fatalf("accepted %d, want 4 (physical cap)", acc)
	}
}

func TestCoDelEmptyDequeue(t *testing.T) {
	c := NewCoDel(10)
	if c.Dequeue(0) != nil {
		t.Fatal("dequeue from empty returned packet")
	}
}

func TestCoDelRecoversWhenQueueDrains(t *testing.T) {
	c := NewCoDel(1000)
	var now sim.Time
	for i := 0; i < 100; i++ {
		c.Enqueue(pkt(1500), now)
	}
	// Drain everything with high sojourn to enter dropping state.
	for c.Len() > 0 {
		now = now.Add(12 * time.Millisecond)
		c.Dequeue(now)
	}
	dropsBefore := c.Drops
	// Fresh, fast traffic should not be dropped.
	for i := 0; i < 50; i++ {
		now = now.Add(time.Millisecond)
		c.Enqueue(pkt(1500), now)
		c.Dequeue(now)
	}
	if c.Drops != dropsBefore {
		t.Fatalf("CoDel kept dropping after queue drained: %d -> %d", dropsBefore, c.Drops)
	}
}

func TestREDBelowMinThNoDrops(t *testing.T) {
	r := NewRED(100, sim.NewRNG(1, "red"))
	var now sim.Time
	for i := 0; i < 1000; i++ {
		if !r.Enqueue(pkt(1500), now) {
			t.Fatal("RED dropped below MinTh")
		}
		r.Dequeue(now) // keep instantaneous queue ~0
	}
	if r.EarlyDrops != 0 || r.ForcedDrops != 0 {
		t.Fatalf("drops = %d/%d below MinTh", r.EarlyDrops, r.ForcedDrops)
	}
}

func TestREDDropsUnderSustainedLoad(t *testing.T) {
	r := NewRED(50, sim.NewRNG(2, "red"))
	var now sim.Time
	drops := 0
	// Sustained buildup: enqueue 3 for every dequeue.
	for i := 0; i < 3000; i++ {
		if !r.Enqueue(pkt(1500), now) {
			drops++
		}
		if i%3 == 0 {
			r.Dequeue(now)
		}
	}
	if drops == 0 {
		t.Fatal("RED never dropped under sustained overload")
	}
	if r.Len() > r.CapPackets {
		t.Fatalf("queue exceeded cap: %d > %d", r.Len(), r.CapPackets)
	}
}

func TestREDFIFOOrder(t *testing.T) {
	r := NewRED(100, sim.NewRNG(3, "red"))
	var now sim.Time
	id := uint64(0)
	for i := 0; i < 10; i++ {
		p := pkt(100)
		id++
		p.ID = id
		r.Enqueue(p, now)
	}
	last := uint64(0)
	for {
		p := r.Dequeue(now)
		if p == nil {
			break
		}
		if p.ID <= last {
			t.Fatal("RED violated FIFO order")
		}
		last = p.ID
	}
}

// Both AQMs must satisfy the netem.Queue interface.
var (
	_ netem.Queue = (*CoDel)(nil)
	_ netem.Queue = (*RED)(nil)
)

func TestCoDelOnLink(t *testing.T) {
	eng := sim.New()
	delivered := 0
	s := recvFunc(func(p *netem.Packet) { delivered++ })
	q := NewCoDel(640)
	// 1 Mbit/s uplink — the paper's bloat locus.
	l := netem.NewLink(eng, "up", 1e6, 5*time.Millisecond, q, s)
	// Offer 2 Mbit/s for 4 s: persistent overload.
	for i := 0; i < 670; i++ {
		d := time.Duration(i) * 6 * time.Millisecond
		eng.ScheduleHandler(d, sim.Func(func() {
			l.Send(&netem.Packet{Size: 1500})
		}))
	}
	eng.Run()
	if q.Drops == 0 {
		t.Fatal("CoDel on an overloaded link never dropped")
	}
	if delivered == 0 {
		t.Fatal("no packets delivered")
	}
}

type recvFunc func(p *netem.Packet)

func (f recvFunc) Receive(p *netem.Packet) { f(p) }
