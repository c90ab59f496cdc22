package video

import (
	"testing"
	"time"

	"bufferqoe/internal/netem"
	"bufferqoe/internal/sim"
)

// sent is one line of the trace the self-clocked sender and the
// reference must agree on: a data packet (seq, -1), a parity packet
// (groupLo, groupHi) or a rival event (size 0), in global firing order.
type sent struct {
	at   sim.Time
	a, b int
	size int
}

// wire is the sender's first hop: it logs what leaves and consumes it.
type wire struct {
	eng *sim.Engine
	log *[]sent
}

func (w wire) Send(p *netem.Packet) bool {
	e := sent{at: w.eng.Now(), size: p.Size}
	switch pk := p.Payload.(type) {
	case *vpkt:
		e.a, e.b = pk.seq, -1
	case *fecPkt:
		e.a, e.b = pk.groupLo, pk.groupHi
	}
	*w.log = append(*w.log, e)
	p.Release()
	return true
}

// prescheduled is the sender Stream used to be, kept as the
// reference: Start's pacing loop scheduling one pooled one-shot per
// data and parity packet as it goes, then the end-of-clip event.
type prescheduled struct {
	eng *sim.Engine
	log *[]sent
}

// send schedules the one-shot that logs e as sent at time at.
func (r prescheduled) send(at sim.Time, e sent) {
	r.eng.AtHandler(at, sim.Func(func() {
		e.at = r.eng.Now()
		*r.log = append(*r.log, e)
	}))
}

func (r prescheduled) Fire(sim.Time) {}

func (r prescheduled) start(src *Source, cfg Config) {
	eng, p, n := r.eng, src.Profile, src.Frames()
	rng := sim.NewRNG(cfg.Seed, "video-"+src.String())
	group := cfg.FECGroup
	if group <= 0 {
		group = 10
	}
	fec := cfg.Recovery == RecoveryFEC
	frameIv := time.Second / time.Duration(p.FPS)
	start := eng.Now()
	payloadClock, lastSend := start, start
	seq := 0
	for t := 0; t < n; t++ {
		capture := start.Add(time.Duration(t) * frameIv)
		bytes := FrameBytes(src.Clip, p, t, rng)
		pkts := (bytes + tsPayload - 1) / tsPayload
		for k := 0; k < pkts; k++ {
			payload := tsPayload
			if k == pkts-1 {
				payload = bytes - k*tsPayload
			}
			sendAt := capture
			if cfg.Smooth {
				iv := time.Duration(float64(packetWire(payload)*8) / p.Bitrate * float64(time.Second))
				if payloadClock < capture {
					payloadClock = capture
				}
				sendAt = payloadClock
				payloadClock = payloadClock.Add(iv)
			}
			r.send(sendAt, sent{a: seq, b: -1, size: packetWire(payload)})
			if sendAt > lastSend {
				lastSend = sendAt
			}
			if fec && seq%group == group-1 {
				r.send(sendAt, sent{a: seq - group + 1, b: seq + 1, size: packetWire(tsPayload)})
			}
			seq++
		}
	}
	if fec && seq%group != 0 {
		r.send(lastSend, sent{a: seq / group * group, b: seq, size: packetWire(tsPayload)})
	}
	eng.ScheduleHandler(time.Duration(n)*frameIv+StartupDelay+3*time.Second, r)
}

type rivalTick struct {
	log *[]sent
	id  int
}

func (r rivalTick) Fire(now sim.Time) { *r.log = append(*r.log, sent{at: now, a: r.id}) }

// TestSelfClockedSendsMatchPrescheduling starts each kind of stream
// mid-run between two batches of rival events that land on the capture
// instants (where an unsmoothed frame's packets and its parity all
// share one timestamp), once with the real sender and once with the
// old pre-scheduling loop, and requires the same trace, the same event
// count and a heap that no longer holds the whole clip.
func TestSelfClockedSendsMatchPrescheduling(t *testing.T) {
	src := NewSource(ClipB, shortSD, 2)
	frameIv := time.Second / time.Duration(shortSD.FPS)
	cases := []struct {
		name string
		cfg  Config
	}{
		{"plain", Config{Seed: 3}},
		{"smoothed", Config{Seed: 3, Smooth: true}},
		{"fec", Config{Seed: 3, Recovery: RecoveryFEC, FECGroup: 7}},
		{"fec-smoothed", Config{Seed: 3, Smooth: true, Recovery: RecoveryFEC}},
		{"arq", Config{Seed: 3, Smooth: true, Recovery: RecoveryARQ}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			run := func(selfClocked bool) (log []sent, executed uint64, highWater int) {
				eng := sim.New()
				eng.RunUntil(sim.Time(3 * time.Millisecond))
				rivals := func(base int) {
					for k := 0; k < src.Frames(); k += 2 {
						eng.ScheduleHandler(time.Duration(k)*frameIv, rivalTick{&log, base + k})
					}
				}
				rivals(1 << 20) // drawn before the stream's block
				if selfClocked {
					nw := netem.NewNetwork(eng)
					from, to := nw.NewNode("from"), nw.NewNode("to")
					from.SetDefaultRoute(wire{eng, &log})
					Start(from, to, src, tc.cfg, nil)
				} else {
					prescheduled{eng, &log}.start(src, tc.cfg)
				}
				rivals(2 << 20) // drawn after it
				// Smoothing lets the tail of the clip trail its last capture.
				eng.RunFor(time.Duration(src.Frames())*frameIv + 2*time.Second)
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
			var data, parity, lastGroup int
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("entry %d = %+v, reference %+v", i, got[i], want[i])
				}
				switch {
				case got[i].size == 0:
				case got[i].b < 0:
					data++
				default:
					parity++
					lastGroup = got[i].b - got[i].a
				}
			}
			if data == 0 {
				t.Fatal("no data packets in the trace")
			}
			if tc.cfg.Recovery == RecoveryFEC {
				group := tc.cfg.FECGroup
				if group == 0 {
					group = 10
				}
				if data%group == 0 {
					t.Fatalf("%d data packets fill whole groups of %d: pick a clip that leaves a trailing partial group", data, group)
				}
				if wantParity := data/group + 1; parity != wantParity || lastGroup != data%group {
					t.Fatalf("parity packets = %d (last covers %d), want %d (last covers %d)", parity, lastGroup, wantParity, data%group)
				}
			} else if parity != 0 {
				t.Fatalf("%d parity packets without FEC", parity)
			}
			if ticks := data + parity; shallow != deep-ticks+1 {
				t.Fatalf("heap high water %d self-clocked vs %d pre-scheduled: the clip should cost one entry, not %d", shallow, deep, ticks)
			}
		})
	}
}

// TestScheduleBuiltOutOfOrderPanics pins the failure mode: a pacing
// bug must stop the run, not reorder packets behind the walking timer.
func TestScheduleBuiltOutOfOrderPanics(t *testing.T) {
	st := &Stream{}
	st.schedule(sim.Time(2*time.Millisecond), &vpkt{}, 100)
	st.schedule(sim.Time(2*time.Millisecond), &vpkt{seq: 1}, 100) // equal times are in order
	defer func() {
		if recover() == nil {
			t.Fatal("a schedule entry earlier than its predecessor did not panic")
		}
	}()
	st.schedule(sim.Time(time.Millisecond), &vpkt{seq: 2}, 100)
}
