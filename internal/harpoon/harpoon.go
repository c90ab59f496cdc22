// Package harpoon models the Harpoon flow-level traffic generator
// (Sommers, Kim, Barford, SIGMETRICS 2004) as used in the paper's
// testbeds: closed-loop user sessions that repeatedly transfer files
// with exponentially distributed think times and Weibull(0.35, 10039)
// file sizes (mean ~50 KB), plus long-lived flows of infinite
// duration.
//
// Calibration note (documented substitution): Harpoon sessions issue
// requests over several parallel connection threads; the paper's
// session counts (Table 1) implicitly include that parallelism. We
// model each session as Parallel independent request loops and
// calibrate think times so the generated link utilizations reproduce
// Table 1's measured values.
package harpoon

import (
	"time"

	"bufferqoe/internal/netem"
	"bufferqoe/internal/sim"
	"bufferqoe/internal/stats"
	"bufferqoe/internal/tcp"
)

// FileSizeWeibull returns the paper's file size sampler:
// Weibull(shape 0.35, scale 10039), at least one byte.
func FileSizeWeibull(rng *sim.RNG) int64 {
	v := int64(rng.Weibull(0.35, 10039))
	if v < 1 {
		v = 1
	}
	return v
}

// SinkPort is the well-known port harpoon sinks listen on.
const SinkPort = 9000

// RegisterSink installs a data sink on the stack: it accepts
// connections, discards payload, and closes its half once the sender
// finishes. The accept hook installs shared function values, so a
// sink adds no per-connection allocations.
func RegisterSink(st *tcp.Stack, port uint16) {
	st.Listen(port, sinkAccept)
}

func sinkAccept(c *tcp.Conn) { c.OnPeerClose = (*tcp.Conn).CloseWrite }

// Stats aggregates generator-level counters.
type Stats struct {
	Started    uint64
	Completed  uint64
	Aborted    uint64
	BytesMoved int64
	// Concurrent samples the number of in-flight transfers once a
	// second (the "Concurrent Flows" column of Table 1).
	Concurrent stats.Welford
}

// Generator drives one traffic direction: data flows from the sender
// stacks to the sink addresses.
type Generator struct {
	eng   *sim.Engine
	rng   *sim.RNG
	stats Stats

	senders []*tcp.Stack
	sinks   []netem.Addr

	active int
}

// NewGenerator creates a generator. senders are the stacks that emit
// file data; sinks are listening sink addresses on the receiving side.
func NewGenerator(eng *sim.Engine, rng *sim.RNG, senders []*tcp.Stack, sinks []netem.Addr) *Generator {
	return &Generator{eng: eng, rng: rng, senders: senders, sinks: sinks}
}

// Stats returns the accumulated counters.
func (g *Generator) Stats() *Stats { return &g.stats }

// Active returns the number of in-flight transfers.
func (g *Generator) Active() int { return g.active }

// Spec describes one session population.
type Spec struct {
	// Sessions is the number of user sessions (Table 1 "# Sessions").
	Sessions int
	// Parallel is the number of request loops per session.
	Parallel int
	// Think is the mean exponential gap between a completion and the
	// next request in a loop.
	Think time.Duration
	// FileSize samples the transfer size; nil means FileSizeWeibull.
	FileSize func(*sim.RNG) int64
	// Infinite starts Sessions*Parallel long-lived flows of infinite
	// duration instead of closed loops (the paper's "long" scenarios
	// use Parallel 1).
	Infinite bool
}

// Loops returns the total number of independent request loops.
func (s Spec) Loops() int {
	p := s.Parallel
	if p < 1 {
		p = 1
	}
	return s.Sessions * p
}

// Start launches the session population. Loop start times are jittered
// over the first think interval to avoid synchronization (the paper
// §5.1 notes the workload choice eliminates synchronization).
func (g *Generator) Start(spec Spec) {
	size := spec.FileSize
	if size == nil {
		size = FileSizeWeibull
	}
	for i := 0; i < spec.Loops(); i++ {
		i := i
		if spec.Infinite {
			delay := time.Duration(g.rng.Uniform(0, 1) * float64(time.Second))
			g.eng.ScheduleHandler(delay, sim.Func(func() { g.startInfinite(i) }))
			continue
		}
		delay := time.Duration(g.rng.Exponential(spec.Think.Seconds()) * float64(time.Second))
		g.eng.ScheduleHandler(delay, sim.Func(func() { g.runLoop(i, spec, size) }))
	}
}

// StartConcurrencySampling records the in-flight transfer count every
// interval.
func (g *Generator) StartConcurrencySampling(interval time.Duration) {
	var tick sim.Func
	tick = func() {
		g.stats.Concurrent.Add(float64(g.active))
		g.eng.ScheduleHandler(interval, tick)
	}
	g.eng.ScheduleHandler(interval, tick)
}

func (g *Generator) pickSender(i int) *tcp.Stack {
	return g.senders[i%len(g.senders)]
}

func (g *Generator) pickSink() netem.Addr {
	return g.sinks[g.rng.IntN(len(g.sinks))]
}

func (g *Generator) startInfinite(i int) {
	st := g.pickSender(i)
	conn := st.Dial(g.pickSink())
	g.stats.Started++
	g.active++
	conn.OnEstablished = func() { conn.SendInfinite() }
	conn.OnClose = func(err error) {
		// Infinite flows only close on abort; restart to keep the
		// population size constant, as an operator restarting iperf
		// would.
		g.active--
		g.stats.Aborted++
		g.eng.ScheduleHandler(time.Second, sim.Func(func() { g.startInfinite(i) }))
	}
}

// nopPeerClose is the shared no-op peer-close handler of the request
// loops (a func literal per flow would allocate).
func nopPeerClose(*tcp.Conn) {}

func (g *Generator) runLoop(i int, spec Spec, size func(*sim.RNG) int64) {
	n := size(g.rng)
	st := g.pickSender(i)
	conn := st.Dial(g.pickSink())
	g.stats.Started++
	g.active++
	conn.OnEstablished = func() {
		conn.Send(n)
		conn.CloseWrite()
	}
	conn.OnPeerClose = nopPeerClose // sink closes after us; nothing to do
	conn.OnClose = func(err error) {
		g.active--
		if err != nil {
			g.stats.Aborted++
		} else {
			g.stats.Completed++
			g.stats.BytesMoved += n
		}
		think := time.Duration(g.rng.Exponential(spec.Think.Seconds()) * float64(time.Second))
		g.eng.ScheduleHandler(think, sim.Func(func() { g.runLoop(i, spec, size) }))
	}
}
