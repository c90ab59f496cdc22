// Package web models the paper's web browsing measurement (Section
// 9): a wget-style client fetching a small static page — one HTML
// file, one CSS file, and two JPEG images (15, 5.8, 30, 30 KB) — over
// a single persistent HTTP/1.0 TCP connection, sequentially and
// without pipelining, measuring the page load time (PLT) and mapping
// it to QoE with ITU-T G.1030.
package web

import (
	"time"

	"bufferqoe/internal/netem"
	"bufferqoe/internal/sim"
	"bufferqoe/internal/tcp"
)

// ObjectSizes are the page objects in fetch order: HTML, CSS, two
// medium JPEGs (Section 9.1).
var ObjectSizes = []int64{15000, 5800, 30000, 30000}

// RequestSize is the size of one HTTP GET request.
const RequestSize = 200

// Port is the web server's listening port.
const Port = 80

// PageBytes returns the total page payload.
func PageBytes() int64 {
	var n int64
	for _, s := range ObjectSizes {
		n += s
	}
	return n
}

// RegisterServer installs the static-page server on a stack: for each
// complete 200-byte request it responds with the next object in
// sequence (per connection).
func RegisterServer(st *tcp.Stack, port uint16) {
	st.Listen(port, func(c *tcp.Conn) {
		var pending int64
		next := 0
		c.OnReadable = func(n int64) {
			pending += n
			for pending >= RequestSize && next < len(ObjectSizes) {
				pending -= RequestSize
				c.Send(ObjectSizes[next])
				next++
			}
		}
		c.OnPeerClose = func(*tcp.Conn) { c.CloseWrite() }
	})
}

// Result describes one page fetch.
type Result struct {
	// PLT is the page load time: connection start to last payload
	// byte.
	PLT time.Duration
	// Completed is false if the deadline elapsed first (PLT then holds
	// the deadline).
	Completed bool
	// Retransmissions and SRTT come from the client connection and
	// support the paper's loss-dominated vs RTT-dominated analysis.
	Retransmissions uint64
	SRTT            time.Duration
}

// Fetch retrieves the page from server and invokes onDone when the
// last byte arrives or the deadline passes. A deadline of zero means
// 30 s.
func Fetch(st *tcp.Stack, server netem.Addr, deadline time.Duration, onDone func(Result)) {
	if deadline <= 0 {
		deadline = 30 * time.Second
	}
	eng := st.Node().Engine()
	start := eng.Now()
	conn := st.Dial(server)

	var got int64
	obj := 0
	done := false
	total := PageBytes()

	finish := func(completed bool) {
		if done {
			return
		}
		done = true
		onDone(Result{
			PLT:             eng.Now().Sub(start),
			Completed:       completed,
			Retransmissions: conn.Stat.Retransmissions,
			SRTT:            conn.SRTT(),
		})
	}

	var guard sim.Timer
	eng.InitTimer(&guard, sim.Func(func() {
		finish(false)
		conn.Abort(nil)
	}))
	guard.Reset(deadline)

	conn.OnEstablished = func() { conn.Send(RequestSize) } // first GET
	conn.OnReadable = func(n int64) {
		got += n
		// Objects arrive strictly in order on the single connection:
		// request the next one as soon as the current completes.
		var boundary int64
		for i := 0; i <= obj && i < len(ObjectSizes); i++ {
			boundary += ObjectSizes[i]
		}
		for got >= boundary && obj < len(ObjectSizes)-1 {
			obj++
			conn.Send(RequestSize)
			boundary += ObjectSizes[obj]
		}
		if got >= total {
			guard.Stop()
			finish(true)
			conn.CloseWrite()
		}
	}
	conn.OnPeerClose = func(*tcp.Conn) { conn.CloseWrite() }
	conn.OnClose = func(err error) {
		if err != nil {
			guard.Stop()
			finish(false)
		}
	}
}
