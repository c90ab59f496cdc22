package netem

import "testing"

// TestDropTailRingFollowsOccupancy: a drop-tail queue larger than
// eagerRing does not allocate its capacity up front, so a buffer of a
// million packets holding a handful costs eagerRing slots; its ring
// doubles as packets queue, up to the capacity, and stays FIFO across
// a growth that unwraps a wrapped ring.
func TestDropTailRingFollowsOccupancy(t *testing.T) {
	q := NewDropTail(1 << 20)
	for i := 0; i < 5; i++ {
		if !q.Enqueue(&Packet{ID: uint64(i)}, 0) {
			t.Fatalf("packet %d dropped", i)
		}
	}
	if n := len(q.ring); n > eagerRing {
		t.Fatalf("5 packets in a 1<<20-packet queue hold a %d-slot ring", n)
	}

	// Wrap the ring, then overfill it: the order must survive.
	const capacity = 2*eagerRing + 40
	q = NewDropTail(capacity)
	next, want := uint64(0), uint64(0)
	push := func(k int) {
		for ; k > 0; k-- {
			if !q.Enqueue(&Packet{ID: next}, 0) {
				t.Fatalf("packet %d dropped at %d queued", next, q.Len())
			}
			next++
		}
	}
	pop := func(k int) {
		for ; k > 0; k-- {
			if p := q.Dequeue(0); p == nil || p.ID != want {
				t.Fatalf("dequeued %v, want packet %d", p, want)
			}
			want++
		}
	}
	push(eagerRing)
	pop(10)
	push(10) // wraps: the ring is full with its head mid-ring
	if len(q.ring) != eagerRing {
		t.Fatalf("ring %d slots, want %d before it grows", len(q.ring), eagerRing)
	}
	push(eagerRing + 40) // grows twice: to 2*eagerRing, then to the capacity
	if len(q.ring) != capacity || q.Len() != capacity {
		t.Fatalf("ring %d slots holding %d, want %d and %d", len(q.ring), q.Len(), capacity, capacity)
	}
	if q.Enqueue(&Packet{ID: next}, 0) {
		t.Fatal("a full queue accepted a packet")
	}
	pop(capacity)
	if q.Len() != 0 || q.Dequeue(0) != nil {
		t.Fatal("queue not empty")
	}
}
