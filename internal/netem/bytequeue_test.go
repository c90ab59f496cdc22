package netem

import (
	"testing"
	"testing/quick"
	"time"

	"bufferqoe/internal/sim"
)

func TestByteQueueAcceptsUntilCapacity(t *testing.T) {
	q := NewDropTailBytes(3000)
	if !q.Enqueue(mkpkt(1500), 0) || !q.Enqueue(mkpkt(1500), 0) {
		t.Fatal("enqueue under capacity rejected")
	}
	// Occupancy == capacity: the next packet must be dropped.
	if q.Enqueue(mkpkt(60), 0) {
		t.Fatal("enqueue at full byte capacity accepted")
	}
	if q.Len() != 2 || q.Bytes() != 3000 {
		t.Fatalf("len=%d bytes=%d", q.Len(), q.Bytes())
	}
}

func TestByteQueueOvershootBoundedByOnePacket(t *testing.T) {
	// 2000-byte budget with 1500-byte packets: the second enqueue sees
	// 1500 < 2000 and is accepted, overshooting to 3000 — but never
	// beyond capacity + one packet.
	q := NewDropTailBytes(2000)
	q.Enqueue(mkpkt(1500), 0)
	if !q.Enqueue(mkpkt(1500), 0) {
		t.Fatal("under-capacity enqueue rejected")
	}
	if q.Bytes() > 2000+MTU {
		t.Fatalf("occupancy %d exceeds capacity+MTU", q.Bytes())
	}
	if q.Enqueue(mkpkt(60), 0) {
		t.Fatal("enqueue above capacity accepted")
	}
}

func TestByteQueueSmallPacketsFitWhereLargeDoNot(t *testing.T) {
	// The motivating asymmetry: a byte-counted 6000-byte queue holds
	// many 60-byte VoIP frames, a 4-packet-counted queue only 4.
	bq := NewDropTailBytes(6000)
	pq := NewDropTail(4)
	acceptedB, acceptedP := 0, 0
	for i := 0; i < 120; i++ {
		if bq.Enqueue(mkpkt(60), 0) {
			acceptedB++
		}
		if pq.Enqueue(mkpkt(60), 0) {
			acceptedP++
		}
	}
	if acceptedP != 4 {
		t.Fatalf("packet-counted queue accepted %d", acceptedP)
	}
	if acceptedB < 100 {
		t.Fatalf("byte-counted queue accepted only %d small packets", acceptedB)
	}
}

func TestByteQueueMinimumCapacityIsOneMTU(t *testing.T) {
	q := NewDropTailBytes(10)
	if q.CapBytes != MTU {
		t.Fatalf("capacity %d, want %d", q.CapBytes, MTU)
	}
	if !q.Enqueue(mkpkt(1500), 0) {
		t.Fatal("full-sized packet rejected by minimum-capacity queue")
	}
}

func TestByteQueueMonitorSeesDrops(t *testing.T) {
	q := NewDropTailBytes(1500)
	q.Monitor = &QueueMonitor{Name: "bq"}
	q.Enqueue(mkpkt(1500), 0)
	q.Enqueue(mkpkt(1500), 0) // dropped
	if q.Monitor.Dropped != 1 || q.Monitor.Enqueued != 1 {
		t.Fatalf("drops=%d enq=%d", q.Monitor.Dropped, q.Monitor.Enqueued)
	}
}

// Property: for any interleaving of enqueues and dequeues the
// byte-counted queue preserves FIFO order, keeps Bytes() equal to the
// sum of queued packet sizes, and never exceeds capacity by more than
// one maximum packet.
func TestPropertyByteQueueInvariants(t *testing.T) {
	f := func(ops []bool, sizes []uint16, capacity uint16) bool {
		capB := int(capacity)%20000 + MTU
		q := NewDropTailBytes(capB)
		nextID, lastOut := uint64(0), uint64(0)
		sum := 0
		si := 0
		size := func() int {
			if len(sizes) == 0 {
				return 100
			}
			s := int(sizes[si%len(sizes)])%MTU + 1
			si++
			return s
		}
		for _, enq := range ops {
			if enq {
				nextID++
				p := mkpkt(size())
				p.ID = nextID
				if q.Enqueue(p, 0) {
					sum += p.Size
				}
			} else if p := q.Dequeue(0); p != nil {
				if p.ID <= lastOut {
					return false
				}
				lastOut = p.ID
				sum -= p.Size
			}
			if q.Bytes() != sum {
				return false
			}
			if q.Bytes() > capB+MTU {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestJitterBoxAddsDelayWithoutReordering(t *testing.T) {
	eng := sim.New()
	s := &sink{eng: eng}
	jb := NewJitterBox(eng, sim.NewRNG(7, "jitter"), 10*time.Millisecond, 5*time.Millisecond, s)
	const n = 200
	for i := 0; i < n; i++ {
		p := mkpkt(100)
		p.ID = uint64(i + 1)
		at := time.Duration(i) * time.Millisecond
		eng.ScheduleHandler(at, sim.Func(func() { jb.Receive(p) }))
	}
	eng.Run()
	if len(s.pkts) != n {
		t.Fatalf("delivered %d packets, want %d", len(s.pkts), n)
	}
	for i, p := range s.pkts {
		if p.ID != uint64(i+1) {
			t.Fatalf("reordered: position %d has ID %d", i, p.ID)
		}
	}
}

func TestJitterBoxDelayAtLeastBase(t *testing.T) {
	eng := sim.New()
	var deliveredAt sim.Time
	dst := recvFunc(func(p *Packet) { deliveredAt = eng.Now() })
	jb := NewJitterBox(eng, sim.NewRNG(1, "jitter"), 30*time.Millisecond, 2*time.Millisecond, dst)
	jb.Receive(mkpkt(100))
	eng.Run()
	if deliveredAt.Duration() < 30*time.Millisecond {
		t.Fatalf("delivered after %v, want >= base 30ms", deliveredAt.Duration())
	}
}

func TestJitterBoxTruncatesExtremes(t *testing.T) {
	eng := sim.New()
	base, jit := 5*time.Millisecond, 10*time.Millisecond
	max := 20 * time.Millisecond
	var worst time.Duration
	dst := recvFunc(func(p *Packet) {
		d := eng.Now().Duration() - time.Duration(p.ID)*time.Second
		if d > worst {
			worst = d
		}
	})
	jb := NewJitterBox(eng, sim.NewRNG(3, "jitter"), base, jit, dst)
	jb.MaxJitter = max
	// Packets spaced a full second apart: no FIFO interaction, so each
	// delay is exactly base+extra.
	for i := 0; i < 500; i++ {
		p := mkpkt(100)
		p.ID = uint64(i)
		eng.ScheduleHandler(time.Duration(i)*time.Second, sim.Func(func() { jb.Receive(p) }))
	}
	eng.Run()
	if worst > base+max {
		t.Fatalf("worst one-way delay %v exceeds base+max %v", worst, base+max)
	}
	if worst <= base {
		t.Fatal("jitter never materialized")
	}
}

// recvFunc adapts a function to the Receiver interface.
type recvFunc func(p *Packet)

func (f recvFunc) Receive(p *Packet) { f(p) }

func TestECNFieldsDefaultClear(t *testing.T) {
	p := mkpkt(100)
	if p.ECT || p.CE {
		t.Fatal("fresh packet has ECN bits set")
	}
}
