package aqm

import (
	"hash/fnv"
	"math"
	"time"

	"bufferqoe/internal/netem"
	"bufferqoe/internal/sim"
)

// FQCoDel implements the FlowQueue-CoDel packet scheduler and AQM
// (RFC 8290) — the discipline that actually shipped in home routers as
// the fix for the access-uplink bufferbloat the paper studies. Flows
// are hashed into sub-queues; a deficit round-robin scheduler with a
// new-flow priority list isolates sparse flows (VoIP, DNS, TCP ACKs)
// from bulk transfers, and each sub-queue runs its own CoDel instance.
//
// Against the paper's Figure 7b worst case (bloated uplink, long-lived
// upload flows) FQ-CoDel attacks both problems at once: CoDel bounds
// the standing queue, and flow isolation keeps the VoIP packets from
// waiting behind bulk data at all.
type FQCoDel struct {
	// Flows is the number of hash buckets (RFC default 1024; scaled
	// down here to the simulator's population).
	Flows int
	// Quantum is the DRR byte quantum per scheduling round (one MTU).
	Quantum int
	// CapPackets bounds the total buffered packets across sub-queues.
	CapPackets int
	// Target and Interval parameterize the per-flow CoDel instances.
	Target, Interval time.Duration
	// ECN marks ECT packets instead of dropping (per-flow CoDel mode).
	ECN bool
	// Monitor, if non-nil, observes aggregate queue events.
	Monitor *netem.QueueMonitor

	buckets  []*fqFlow
	newFlows []*fqFlow
	oldFlows []*fqFlow
	pkts     int
	bytes    int

	// Drops counts CoDel and overflow drops; Marks counts CE marks.
	Drops, Marks uint64
	// OverflowDrops counts packets head-dropped from the fattest flow
	// when the shared buffer is full.
	OverflowDrops uint64
}

// fqFlow is one hash bucket: a FIFO of packets plus CoDel state and a
// DRR deficit.
type fqFlow struct {
	q       []*netem.Packet
	head    int
	bytes   int
	deficit int
	active  bool // on newFlows or oldFlows list

	// Per-flow CoDel state (RFC 8290 §4.2).
	dropping      bool
	firstAboveAt  sim.Time
	dropNextAt    sim.Time
	dropCount     int
	lastDropCount int
}

func (f *fqFlow) len() int { return len(f.q) - f.head }

func (f *fqFlow) push(p *netem.Packet) {
	f.q = append(f.q, p)
	f.bytes += p.Size
}

func (f *fqFlow) pop() *netem.Packet {
	if f.len() == 0 {
		return nil
	}
	p := f.q[f.head]
	f.q[f.head] = nil
	f.head++
	if f.head == len(f.q) {
		f.q = f.q[:0]
		f.head = 0
	}
	f.bytes -= p.Size
	return p
}

// NewFQCoDelForRate returns an FQ-CoDel tuned for a link of the given
// rate, raising the CoDel target on slow links exactly as
// NewCoDelForRate does (RFC 8290 inherits RFC 8289's guidance).
func NewFQCoDelForRate(capPackets int, rateBps float64) *FQCoDel {
	fq := NewFQCoDel(capPackets)
	if rateBps > 0 {
		mtuTx := time.Duration(float64(netem.MTU*8) / rateBps * float64(time.Second))
		if t := mtuTx * 3 / 2; t > fq.Target {
			fq.Target = t
		}
	}
	return fq
}

// NewFQCoDel returns an FQ-CoDel queue with RFC defaults (5 ms target,
// 100 ms interval, one-MTU quantum) over 64 hash buckets and the given
// total packet capacity.
func NewFQCoDel(capPackets int) *FQCoDel {
	if capPackets < 1 {
		capPackets = 1
	}
	fq := &FQCoDel{
		Flows:      64,
		Quantum:    netem.MTU,
		CapPackets: capPackets,
		Target:     5 * time.Millisecond,
		Interval:   100 * time.Millisecond,
	}
	fq.buckets = make([]*fqFlow, fq.Flows)
	for i := range fq.buckets {
		fq.buckets[i] = &fqFlow{}
	}
	return fq
}

// bucket hashes a packet's flow tuple to its sub-queue.
func (fq *FQCoDel) bucket(p *netem.Packet) *fqFlow {
	h := fnv.New32a()
	var b [13]byte
	b[0] = byte(p.Flow.Proto)
	put32 := func(off int, v uint32) {
		b[off] = byte(v >> 24)
		b[off+1] = byte(v >> 16)
		b[off+2] = byte(v >> 8)
		b[off+3] = byte(v)
	}
	put32(1, uint32(p.Flow.Src.Node)<<16|uint32(p.Flow.Src.Port))
	put32(5, uint32(p.Flow.Dst.Node)<<16|uint32(p.Flow.Dst.Port))
	h.Write(b[:9])
	return fq.buckets[h.Sum32()%uint32(len(fq.buckets))]
}

// Enqueue implements netem.Queue. On overflow it drops from the head
// of the fattest sub-queue (RFC 8290 §4.1.2), so a bulk flow cannot
// push out a sparse one.
func (fq *FQCoDel) Enqueue(p *netem.Packet, now sim.Time) bool {
	f := fq.bucket(p)
	p.Enqueued = now
	f.push(p)
	fq.pkts++
	fq.bytes += p.Size
	if !f.active {
		f.active = true
		f.deficit = fq.Quantum
		fq.newFlows = append(fq.newFlows, f)
	}
	if fq.Monitor != nil {
		fq.Monitor.NoteEnqueue()
	}
	if fq.pkts > fq.CapPackets {
		fq.dropFromFattest(now)
		// The offered packet was admitted; the head of the largest
		// queue paid instead. Report acceptance either way.
	}
	return true
}

// dropFromFattest head-drops one packet from the sub-queue holding the
// most bytes.
func (fq *FQCoDel) dropFromFattest(now sim.Time) {
	var fat *fqFlow
	for _, f := range fq.buckets {
		if fat == nil || f.bytes > fat.bytes {
			fat = f
		}
	}
	if fat == nil || fat.len() == 0 {
		return
	}
	p := fat.pop()
	fq.pkts--
	fq.bytes -= p.Size
	fq.OverflowDrops++
	fq.Drops++
	if fq.Monitor != nil {
		fq.Monitor.NoteDrop()
	}
	p.Release()
}

// codelDequeue runs the per-flow CoDel state machine and returns the
// next deliverable packet from flow f (nil if the flow emptied).
func (fq *FQCoDel) codelDequeue(f *fqFlow, now sim.Time) *netem.Packet {
	pop := func() (*netem.Packet, bool) {
		p := f.pop()
		if p == nil {
			f.firstAboveAt = 0
			return nil, false
		}
		fq.pkts--
		fq.bytes -= p.Size
		sojourn := now.Sub(p.Enqueued)
		if sojourn < fq.Target || f.bytes <= netem.MTU {
			f.firstAboveAt = 0
			return p, false
		}
		if f.firstAboveAt == 0 {
			f.firstAboveAt = now.Add(fq.Interval)
			return p, false
		}
		return p, now >= f.firstAboveAt
	}
	controlLaw := func(t sim.Time) sim.Time {
		return t.Add(time.Duration(float64(fq.Interval) / math.Sqrt(float64(f.dropCount))))
	}

	p, okToDrop := pop()
	if p == nil {
		f.dropping = false
		return nil
	}
	if f.dropping {
		if !okToDrop {
			f.dropping = false
		} else {
			for now >= f.dropNextAt && f.dropping {
				if fq.ECN && p.ECT {
					fq.Marks++
					f.dropCount++
					p.CE = true
					f.dropNextAt = controlLaw(f.dropNextAt)
					return p
				}
				fq.Drops++
				f.dropCount++
				if fq.Monitor != nil {
					fq.Monitor.NoteDrop()
				}
				p.Release()
				var ok bool
				p, ok = pop()
				if p == nil {
					f.dropping = false
					return nil
				}
				if !ok {
					f.dropping = false
				} else {
					f.dropNextAt = controlLaw(f.dropNextAt)
				}
			}
		}
	} else if okToDrop {
		f.dropping = true
		delta := f.dropCount - f.lastDropCount
		f.dropCount = 1
		if delta > 1 && now.Sub(f.dropNextAt) < 16*fq.Interval {
			f.dropCount = delta
		}
		f.lastDropCount = f.dropCount
		f.dropNextAt = controlLaw(now)
		if fq.ECN && p.ECT {
			fq.Marks++
			p.CE = true
			return p
		}
		fq.Drops++
		if fq.Monitor != nil {
			fq.Monitor.NoteDrop()
		}
		p.Release()
		p, _ = pop()
		if p == nil {
			f.dropping = false
			return nil
		}
	}
	return p
}

// Dequeue implements netem.Queue with the RFC 8290 scheduler: serve
// new flows first, rotating exhausted or negative-deficit flows to the
// old list.
func (fq *FQCoDel) Dequeue(now sim.Time) *netem.Packet {
	for {
		var f *fqFlow
		fromNew := false
		switch {
		case len(fq.newFlows) > 0:
			f = fq.newFlows[0]
			fromNew = true
		case len(fq.oldFlows) > 0:
			f = fq.oldFlows[0]
		default:
			return nil
		}
		if f.deficit <= 0 {
			f.deficit += fq.Quantum
			// Rotate to the back of the old list.
			if fromNew {
				fq.newFlows = fq.newFlows[1:]
			} else {
				fq.oldFlows = fq.oldFlows[1:]
			}
			fq.oldFlows = append(fq.oldFlows, f)
			continue
		}
		p := fq.codelDequeue(f, now)
		if p == nil {
			// Flow emptied: a new flow moves to the old list (so a
			// re-arriving packet does not re-earn priority within the
			// same busy period); an old flow is removed.
			if fromNew {
				fq.newFlows = fq.newFlows[1:]
				fq.oldFlows = append(fq.oldFlows, f)
			} else {
				fq.oldFlows = fq.oldFlows[1:]
				f.active = false
			}
			continue
		}
		f.deficit -= p.Size
		if fq.Monitor != nil {
			fq.Monitor.NoteDequeue(p, now)
		}
		return p
	}
}

// Len implements netem.Queue.
func (fq *FQCoDel) Len() int { return fq.pkts }

// Bytes implements netem.Queue.
func (fq *FQCoDel) Bytes() int { return fq.bytes }
