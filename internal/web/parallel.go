package web

import (
	"time"

	"bufferqoe/internal/netem"
	"bufferqoe/internal/sim"
	"bufferqoe/internal/tcp"
)

// BrowserPort is the addressed-object server's listening port (it can
// coexist with the sequential server of RegisterServer).
const BrowserPort = 81

// RegisterBrowserServer installs a server for browser-style parallel
// fetching: each connection carries exactly one request whose length
// (RequestSize + idx) names the object to serve — the model's
// stand-in for a URL path. The server responds with that object and
// closes.
func RegisterBrowserServer(st *tcp.Stack, port uint16) {
	st.Listen(port, func(c *tcp.Conn) {
		var got int64
		c.OnReadable = func(n int64) {
			got += n
			if got >= RequestSize {
				idx := int(got - RequestSize)
				if idx < 0 || idx >= len(ObjectSizes) {
					idx = 0
				}
				got = -1 << 40 // serve once
				c.Send(ObjectSizes[idx])
				c.CloseWrite()
			}
		}
		c.OnPeerClose = func(*tcp.Conn) { c.CloseWrite() }
	})
}

// FetchParallel retrieves the page the way a contemporary browser
// does rather than the paper's sequential wget (§9.1): the HTML
// (object 0) is fetched first — it names the sub-resources — then the
// remaining objects are requested over up to maxConns concurrent
// connections to a RegisterBrowserServer port. PLT is the time until
// the last object completes.
//
// The paper chose sequential fetching to keep the 14-RTT structure
// analyzable; the ext-parweb question is whether browser parallelism
// changes the buffer-sizing picture (expected: it compresses the RTT
// component, so RTT-dominated cells improve, while loss- and
// bandwidth-dominated cells do not).
func FetchParallel(st *tcp.Stack, server netem.Addr, maxConns int, deadline time.Duration, onDone func(Result)) {
	if deadline <= 0 {
		deadline = 30 * time.Second
	}
	if maxConns < 1 {
		maxConns = 1
	}
	eng := st.Node().Engine()
	start := eng.Now()

	done := false
	var retrans uint64
	var srtt time.Duration
	var conns []*tcp.Conn
	finish := func(completed bool) {
		if done {
			return
		}
		done = true
		onDone(Result{
			PLT:             eng.Now().Sub(start),
			Completed:       completed,
			Retransmissions: retrans,
			SRTT:            srtt,
		})
	}
	var guard sim.Timer
	eng.InitTimer(&guard, sim.Func(func() {
		finish(false)
		for _, c := range conns {
			c.Abort(nil)
		}
	}))
	guard.Reset(deadline)

	remaining := len(ObjectSizes)
	var queue []int
	active := 0
	var launch func(idx int)
	onObjectDone := func(c *tcp.Conn) {
		retrans += c.Stat.Retransmissions
		if c.SRTT() > srtt {
			srtt = c.SRTT()
		}
		remaining--
		active--
		if remaining == 0 {
			guard.Stop()
			finish(true)
			return
		}
		if len(queue) > 0 && active < maxConns {
			next := queue[0]
			queue = queue[1:]
			launch(next)
		}
	}
	launch = func(idx int) {
		active++
		conn := st.Dial(server)
		conns = append(conns, conn)
		size := ObjectSizes[idx]
		var got int64
		fin := false
		conn.OnEstablished = func() { conn.Send(int64(RequestSize + idx)) }
		conn.OnReadable = func(n int64) {
			got += n
			if got >= size && !fin {
				fin = true
				conn.CloseWrite()
				if idx == 0 && !done {
					// HTML parsed: dispatch the sub-resources.
					for i := 1; i < len(ObjectSizes); i++ {
						if active < maxConns {
							launch(i)
						} else {
							queue = append(queue, i)
						}
					}
				}
				onObjectDone(conn)
			}
		}
		conn.OnPeerClose = func(*tcp.Conn) { conn.CloseWrite() }
	}
	launch(0)
}
