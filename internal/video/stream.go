package video

import (
	"math"
	"time"

	"bufferqoe/internal/netem"
	"bufferqoe/internal/qoe"
	"bufferqoe/internal/sim"
)

// TS packetization: 7 MPEG2-TS cells of 188 bytes per RTP packet.
const tsPayload = 7 * 188

// packetWire returns the on-wire size of a video packet with n payload
// bytes.
func packetWire(n int) int {
	return n + netem.RTPHeader + netem.UDPHeader + netem.IPHeader
}

// StartupDelay is the receiver's decode deadline offset (IPTV set-top
// buffering).
const StartupDelay = time.Second

// vpkt identifies one video packet: which frame it belongs to and
// which slice range it carries.
type vpkt struct {
	seq     int
	frame   int
	sliceLo int
	sliceHi int
	stream  *Stream
}

// pktRecord is the sender-side memory of a transmitted packet, kept
// for ARQ retransmission and FEC group membership.
type pktRecord struct {
	pk   *vpkt
	size int
	retx bool // already retransmitted once (ARQ requests once only)
}

// tick is one entry of the sender's schedule: a data or parity packet
// and when it leaves. Entry i fires under sequence number seq0+i.
type tick struct {
	at      sim.Time
	payload any // *vpkt or *fecPkt
	size    int // on-wire bytes
}

// Result summarizes one streamed clip.
type Result struct {
	// MeanSSIM / MeanPSNR average the per-frame full-reference scores
	// (PSNR of identical frames is capped at 60 dB for averaging).
	MeanSSIM, MeanPSNR float64
	// MOS maps MeanSSIM through the Zinner mapping.
	MOS float64
	// PacketsSent / PacketsLost count RTP packets; Lost includes
	// packets arriving after their frame's decode deadline.
	PacketsSent, PacketsLost int
	// FramesImpaired counts frames decoded with at least one concealed
	// slice.
	FramesImpaired int
	// Recovered counts packets repaired in time by ARQ or FEC;
	// NACKs and Retransmits count the ARQ feedback traffic.
	Recovered, NACKs, Retransmits int
}

// LossPct returns the packet loss percentage.
func (r Result) LossPct() float64 {
	if r.PacketsSent == 0 {
		return 0
	}
	return 100 * float64(r.PacketsLost) / float64(r.PacketsSent)
}

// Stream is one in-flight video transmission.
type Stream struct {
	eng    *sim.Engine
	src    *Source
	from   *netem.Node
	to     *netem.Node
	fromP  uint16
	toP    uint16
	smooth bool
	rng    *sim.RNG
	start  sim.Time
	onDone func(Result)

	sent     int
	gotSlice [][]bool // [frame][slice] received before the decode deadline
	deadline []sim.Time

	// The sender is self-clocked: the whole send schedule (data and
	// FEC parity interleaved, in the order the ticks are created) is
	// built at Start under one reserved block of sequence numbers, and
	// one owned timer walks it — the heap holds the next tick, not the
	// whole clip.
	sched     []tick
	seq0      uint64
	next      int // schedule entry the armed tick sends
	sendTimer sim.Timer

	// Error recovery state (see recovery.go).
	recovery  Recovery
	fecGroup  int
	records   []pktRecord
	gotPkt    []bool
	nacked    []bool
	parityGot []bool
	maxSeq    int
	nacksSent int
	retxSent  int
	recovered int
}

// Config tunes a stream run.
type Config struct {
	// Smooth enables the paper's 1-second send-rate smoothing
	// (Section 8.1); without it frames burst at line rate, as stock
	// VLC does.
	Smooth bool
	// Seed drives encoder size jitter.
	Seed uint64
	// Recovery selects the error-recovery scheme (default: none, the
	// paper's baseline).
	Recovery Recovery
	// FECGroup is the data packets per parity packet for RecoveryFEC
	// (default 10, i.e. 10% bandwidth overhead).
	FECGroup int
}

// Start streams the source from -> to and calls onDone with the
// quality evaluation when the clip ends.
func Start(from, to *netem.Node, src *Source, cfg Config, onDone func(Result)) *Stream {
	eng := from.Engine()
	st := &Stream{
		eng:      eng,
		src:      src,
		from:     from,
		to:       to,
		fromP:    from.AllocPort(netem.ProtoUDP),
		toP:      to.AllocPort(netem.ProtoUDP),
		smooth:   cfg.Smooth,
		rng:      sim.NewRNG(cfg.Seed, "video-"+src.String()),
		start:    eng.Now(),
		onDone:   onDone,
		recovery: cfg.Recovery,
		fecGroup: cfg.FECGroup,
		maxSeq:   -1,
	}
	if st.fecGroup <= 0 {
		st.fecGroup = 10
	}
	from.Bind(netem.ProtoUDP, st.fromP, netem.HandlerFunc(st.handleFeedback))
	to.Bind(netem.ProtoUDP, st.toP, netem.HandlerFunc(st.receive))

	p := src.Profile
	n := src.Frames()
	st.gotSlice = make([][]bool, n)
	st.deadline = make([]sim.Time, n)
	frameIv := time.Second / time.Duration(p.FPS)

	// Pacing clock: with smoothing, packets leave at the nominal
	// bitrate averaged over a 1 s window; without, a frame's packets
	// leave back-to-back at capture time.
	payloadClock := st.start
	lastSend := st.start
	for t := 0; t < n; t++ {
		st.gotSlice[t] = make([]bool, p.Slices)
		capture := st.start.Add(time.Duration(t) * frameIv)
		st.deadline[t] = capture.Add(StartupDelay)
		bytes := FrameBytes(src.Clip, p, t, st.rng)
		pkts := (bytes + tsPayload - 1) / tsPayload
		for k := 0; k < pkts; k++ {
			payload := tsPayload
			if k == pkts-1 {
				payload = bytes - k*tsPayload
			}
			lo := k * p.Slices / pkts
			hi := (k + 1) * p.Slices / pkts
			sendAt := capture
			if st.smooth {
				// Advance the smoothing clock by this packet's
				// serialization at the nominal rate; never send
				// before capture.
				iv := time.Duration(float64(packetWire(payload)*8) / p.Bitrate * float64(time.Second))
				if payloadClock < capture {
					payloadClock = capture
				}
				sendAt = payloadClock
				payloadClock = payloadClock.Add(iv)
			}
			seq := len(st.records)
			pk := &vpkt{seq: seq, frame: t, sliceLo: lo, sliceHi: hi, stream: st}
			size := packetWire(payload)
			st.records = append(st.records, pktRecord{pk: pk, size: size})
			st.schedule(sendAt, pk, size)
			st.sent++
			if sendAt > lastSend {
				lastSend = sendAt
			}
			if st.recovery == RecoveryFEC && seq%st.fecGroup == st.fecGroup-1 {
				st.scheduleParity(seq-st.fecGroup+1, seq+1, sendAt)
			}
		}
	}
	// Trailing partial FEC group.
	if st.recovery == RecoveryFEC && len(st.records)%st.fecGroup != 0 {
		lo := len(st.records) / st.fecGroup * st.fecGroup
		st.scheduleParity(lo, len(st.records), lastSend)
	}
	st.gotPkt = make([]bool, len(st.records))
	st.nacked = make([]bool, len(st.records))
	st.parityGot = make([]bool, (len(st.records)+st.fecGroup-1)/st.fecGroup)
	eng.InitTimer(&st.sendTimer, st)
	st.seq0 = eng.ReserveSeq(len(st.sched))
	st.armSend()
	eng.ScheduleHandler(StreamLength(p, n), clipEnd{st})
	return st
}

// StreamLength is how long after its start a stream of the given
// number of frames reports its result: its last frame's capture, the
// startup delay, and three seconds for stragglers and repairs.
func StreamLength(p Profile, frames int) time.Duration {
	frameIv := time.Second / time.Duration(p.FPS)
	return time.Duration(frames)*frameIv + StartupDelay + 3*time.Second
}

// schedule appends one send tick. The owned timer can only walk a
// schedule whose times never decrease; the pacing clock guarantees
// that, and a builder that broke it would silently reorder packets, so
// it fails loudly instead.
func (st *Stream) schedule(at sim.Time, payload any, size int) {
	if n := len(st.sched); n > 0 && at < st.sched[n-1].at {
		panic("video: send schedule built out of time order")
	}
	st.sched = append(st.sched, tick{at: at, payload: payload, size: size})
}

// armSend arms the send timer for the next schedule entry under its
// reserved sequence number; after the last entry it stays unarmed.
//
//qoe:hotpath
func (st *Stream) armSend() {
	if st.next < len(st.sched) {
		st.sendTimer.ResetAtSeq(st.sched[st.next].at, st.seq0+uint64(st.next))
	}
}

// Fire implements sim.Handler: one packet's send tick. The next tick
// is armed before the packet enters the network.
//
//qoe:hotpath
func (st *Stream) Fire(now sim.Time) {
	tk := &st.sched[st.next]
	st.next++
	st.armSend()
	st.send(tk.payload, tk.size)
}

// clipEnd is the end-of-clip handler: the clip (plus drain) ended —
// evaluate.
type clipEnd struct{ *Stream }

func (e clipEnd) Fire(sim.Time) { e.finish() }

// scheduleParity emits the XOR parity packet covering data sequence
// numbers [lo, hi) right after the group's last member. A parity
// packet is always a full cell.
func (st *Stream) scheduleParity(lo, hi int, at sim.Time) {
	fp := &fecPkt{groupLo: lo, groupHi: hi, stream: st}
	st.schedule(at, fp, packetWire(tsPayload))
}

// send transmits one payload (data, parity) toward the receiver.
func (st *Stream) send(payload any, size int) {
	p := st.from.Network().NewPacket()
	p.Flow = netem.Flow{
		Proto: netem.ProtoUDP,
		Src:   st.from.Addr(st.fromP),
		Dst:   st.to.Addr(st.toP),
	}
	p.Size = size
	p.Payload = payload
	st.from.Send(p)
}

// sendPacket retransmits a recorded data packet (ARQ path).
func (st *Stream) sendPacket(pk *vpkt, size int) { st.send(pk, size) }

func (st *Stream) receive(p *netem.Packet) {
	switch pk := p.Payload.(type) {
	case *fecPkt:
		if pk.stream != st {
			return
		}
		if g := pk.groupLo / st.fecGroup; g >= 0 && g < len(st.parityGot) {
			st.parityGot[g] = true
			st.tryFECRepair(pk.groupLo, pk.groupHi)
		}
	case *vpkt:
		if pk.stream != st {
			return
		}
		alreadyGot := pk.seq >= 0 && pk.seq < len(st.gotPkt) && st.gotPkt[pk.seq]
		isRepair := st.recovery == RecoveryARQ && !alreadyGot &&
			pk.seq >= 0 && pk.seq < len(st.nacked) && st.nacked[pk.seq]
		st.noteArrival(pk.seq)
		if st.eng.Now() > st.deadline[pk.frame] {
			return // too late to decode: counts as lost
		}
		if alreadyGot {
			return // duplicate delivery (e.g. spurious retransmission)
		}
		if isRepair {
			st.recovered++
		}
		st.markSlices(pk)
		if st.recovery == RecoveryFEC {
			// This arrival may complete a previously unrepairable
			// group whose parity is already here.
			g := pk.seq / st.fecGroup
			if g >= 0 && g < len(st.parityGot) && st.parityGot[g] {
				lo := g * st.fecGroup
				hi := lo + st.fecGroup
				if hi > len(st.records) {
					hi = len(st.records)
				}
				st.tryFECRepair(lo, hi)
			}
		}
	}
}

// finish decodes the stream with previous-frame slice concealment and
// computes the full-reference quality scores.
func (st *Stream) finish() {
	st.from.Unbind(netem.ProtoUDP, st.fromP)
	st.to.Unbind(netem.ProtoUDP, st.toP)

	p := st.src.Profile
	n := st.src.Frames()
	res := Result{PacketsSent: st.sent}

	// prev is the previously decoded picture, read-only: an undamaged
	// frame decodes to the reference itself, so prev then aliases the
	// source's frame; a damaged one is assembled in one of two buffers
	// (the other may still be prev).
	prev := st.src.Frame(0) // decoder reference starts grey-ish; first I normally arrives
	corrupt := make([]bool, p.Slices)
	bufs := [2][]uint8{make([]uint8, p.W*p.H), make([]uint8, p.W*p.H)}
	cur := 0
	// What an undamaged frame scores: decoded == ref, so SSIM is
	// exactly 1 and PSNR +Inf, capped to 60 (NaN for a degenerate
	// profile — which is why it is computed, once, not assumed).
	cleanSSIM := qoe.SSIM(prev, prev, p.W, p.H)
	cleanPSNR := math.Min(qoe.PSNR(prev, prev), 60)

	var ssimSum, psnrSum float64
	for t := 0; t < n; t++ {
		ref := st.src.Frame(t)
		isI := t%p.GOP == 0
		impaired := false
		// Count losses: a slice not received in time means its packet
		// was lost or late; approximate packet loss from slice coverage.
		lostSlices := 0
		for s := 0; s < p.Slices; s++ {
			got := st.gotSlice[t][s]
			if !got {
				lostSlices++
			}
			// Propagation: a P-slice decodes cleanly only if received
			// AND its reference region was clean; an I-slice resets.
			corrupt[s] = !(got && (isI || !corrupt[s]))
			impaired = impaired || corrupt[s]
		}
		// Attribute slice losses back to packets (approximately: the
		// per-frame packet count scaled by lost slice fraction).
		if lostSlices > 0 {
			res.PacketsLost += (lostSlices*st.packetsOfFrame(t) + p.Slices - 1) / p.Slices
		}
		if !impaired {
			ssimSum += cleanSSIM
			psnrSum += cleanPSNR
			prev = ref
			continue
		}
		res.FramesImpaired++
		decoded := bufs[cur]
		cur ^= 1
		for s := 0; s < p.Slices; s++ {
			lo, hi := sliceRows(p, s)
			from := ref
			if corrupt[s] {
				from = prev
			}
			copy(decoded[lo*p.W:hi*p.W], from[lo*p.W:hi*p.W])
		}
		ssimSum += qoe.SSIM(ref, decoded, p.W, p.H)
		psnrSum += math.Min(qoe.PSNR(ref, decoded), 60)
		prev = decoded
	}
	res.MeanSSIM = ssimSum / float64(n)
	res.MeanPSNR = psnrSum / float64(n)
	res.MOS = qoe.SSIMToMOS(res.MeanSSIM)
	res.Recovered = st.recovered
	res.NACKs = st.nacksSent
	res.Retransmits = st.retxSent
	if st.onDone != nil {
		st.onDone(res)
	}
}

// packetsOfFrame recomputes how many packets frame t was sent in.
func (st *Stream) packetsOfFrame(t int) int {
	// Deterministic re-derivation is not possible without replaying
	// the RNG; a per-frame average is accurate enough for the loss
	// statistic.
	avg := st.sent / st.src.Frames()
	if avg < 1 {
		avg = 1
	}
	return avg
}
