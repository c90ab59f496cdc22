package layers

import (
	"sort"
	"time"

	"bufferqoe/internal/netem"
	"bufferqoe/internal/sim"
	"bufferqoe/internal/tcp"
)

// pair is a two-node network with a TCP stack on each end.
type pair struct {
	eng            *sim.Engine
	server         *netem.Node
	cStack, sStack *tcp.Stack
}

func newPair(cfg tcp.Config) *pair {
	eng := sim.New()
	nw := netem.NewNetwork(eng)
	c, srv := nw.NewNode("client"), nw.NewNode("server")
	nw.Connect(c, srv, 1e9, time.Millisecond, 1000)
	return &pair{eng: eng, server: srv, cStack: tcp.NewStack(c, cfg), sStack: tcp.NewStack(srv, cfg)}
}

// serve makes the server answer every connection with n bytes and
// close; it returns a pointer to the most recent server-side conn.
func (p *pair) serve(n int64) **tcp.Conn {
	last := new(*tcp.Conn)
	p.sStack.Listen(80, func(c *tcp.Conn) {
		*last = c
		c.OnEstablished = func() {
			c.Send(n)
			c.CloseWrite()
		}
	})
	return last
}

// fetch opens one connection, lets the transfer and the close finish,
// and reports the bytes the client received.
func (p *pair) fetch(window time.Duration) int64 {
	var got int64
	c := p.cStack.Dial(p.server.Addr(80))
	c.OnReadable = func(nb int64) { got += nb }
	c.OnPeerClose = (*tcp.Conn).CloseWrite
	p.eng.RunFor(window)
	return got
}

// bulk runs one 10 MB transfer under the given congestion control
// and returns host ns, allocations and simulator events per data segment
// sent.
// The cost covers everything a segment causes on a two-node net: the
// data packet's hop, its share of ACKs, timers and the events behind
// them.
func bulk(cc func() tcp.CongestionControl) (nsPerSeg, allocsPerSeg, eventsPerSeg float64) {
	const size = 10 << 20
	runs := make([][3]float64, 0, 3)
	for i := 0; i < 3; i++ {
		p := newPair(tcp.Config{NewCC: cc})
		srv := p.serve(size)
		var got int64
		var wall time.Duration
		mallocs, _ := heapDelta(func() {
			t0 := time.Now()
			got = p.fetch(30 * time.Second)
			wall = time.Since(t0)
		})
		if got != size || *srv == nil {
			return 0, 0, 0
		}
		segs := float64((*srv).Stat.SegmentsSent)
		runs = append(runs, [3]float64{float64(wall) / segs, mallocs / segs, float64(p.eng.Executed) / segs})
	}
	// Median by time; the counts barely move between runs.
	sort.Slice(runs, func(i, j int) bool { return runs[i][0] < runs[j][0] })
	return runs[1][0], runs[1][1], runs[1][2]
}

// tcpProbes times a bulk transfer per data segment under the default
// (unpaced) congestion control and under BBR with its pacer, and one
// short connection: open, ten segments, close — the unit the
// backbone's short-flow workloads churn through.
func tcpProbes(s *prober) {
	ns, allocs, events := bulk(nil)
	s.put("tcp.segment_ns", ns, "ns")
	s.put("tcp.segment_allocs", allocs, "allocs")
	s.put("tcp.events_per_segment", events, "count")
	ns, _, _ = bulk(tcp.NewBBRLite)
	s.put("tcp.bbr_segment_ns", ns, "ns")

	p := newPair(tcp.Config{})
	p.serve(10 * 1460)
	s.put("tcp.conn_us", s.perOp(func() { p.fetch(time.Second) })/1e3, "us")
}
