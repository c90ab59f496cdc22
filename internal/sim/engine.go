// Package sim provides a deterministic discrete-event simulation engine.
//
// The engine maintains a virtual clock and an event queue. All model
// components (links, queues, protocol endpoints, applications) schedule
// callbacks on a shared *Engine; the engine executes them in
// non-decreasing time order. Events scheduled for the same instant run
// in FIFO order of scheduling, which keeps runs bit-for-bit reproducible.
//
// # Two kinds of event
//
// Every event is a Handler; Func makes a closure one. A one-shot
// (ScheduleHandler, AtHandler) takes its Timer from a per-engine
// free-list and recycles it the moment it fires, so steady-state
// scheduling allocates nothing; no handle is returned, so a one-shot
// cannot be cancelled. An owned timer (InitTimer, Reset, Stop) is
// embedded in a model component and rearmed in place for the
// component's lifetime — a TCP connection's retransmission timer, a
// link's serialization tick, a fetch's deadline guard — and is never
// pooled, so a retained handle is always safe. Every arming operation
// draws one fresh sequence number when it is called, so moving a call
// site from one kind to the other preserves same-instant FIFO order.
//
// # Two tiers of time
//
// The queue is split by one total (at, seq) key into two tiers, shared
// by both kinds of event: timers armed to fire within a millisecond of
// being armed, and timers armed further out. The far tier is an
// index-tracked 4-ary min-heap. The near tier is a sorted run of slots
// that carry their key inline, latest first, so the earliest near
// timer is the last slot. Dispatch pops the smaller of the last slot
// and the far root, so the order is that of one heap, while the events
// that fire — nearly all of them packet hops — pop by truncating a run
// of a few timers due soon, with no sift at all.
//
// # Reserved sequence numbers
//
// The heap is for events whose order is not known in advance. A stream
// of events that is provably (at, seq)-monotone — a constant-delay
// link's deliveries, a media sender's frame ticks — lives in its owner
// instead: the owner draws each event's sequence number when a one-shot
// would have been scheduled (ReserveSeq), keeps the stream in its
// own ring, and exposes only the head to the heap by arming one owned
// timer under exactly that event's key (ResetAtSeq). Global pop order
// is a function of the (at, seq) keys alone, so it is unchanged, while
// heap depth tracks the number of streams, not their length.
package sim

import (
	"fmt"
	"time"
)

// Time is an absolute point on the simulation clock, in nanoseconds
// since the start of the run. The zero Time is the beginning of the
// simulation.
type Time int64

// Add returns the time d after t.
func (t Time) Add(d time.Duration) Time { return t + Time(d) }

// Sub returns the duration t-u.
func (t Time) Sub(u Time) time.Duration { return time.Duration(t - u) }

// Duration converts an absolute time to the duration elapsed since the
// simulation start.
func (t Time) Duration() time.Duration { return time.Duration(t) }

// Seconds reports t as floating-point seconds since simulation start.
func (t Time) Seconds() float64 { return float64(t) / 1e9 }

// String formats the time like a time.Duration, e.g. "1.5s".
func (t Time) String() string { return time.Duration(t).String() }

// Handler is a component that reacts to a timer firing. Implementing
// it on a component lets the component schedule its recurring ticks
// with zero per-event allocation.
type Handler interface {
	Fire(now Time)
}

// Func adapts an ordinary function to a Handler, as http.HandlerFunc
// does for HTTP: sim.Func(fn) is a Handler that calls fn.
type Func func()

// Fire implements Handler by calling f.
func (f Func) Fire(Time) { f() }

// A Timer is a scheduled event. Owned timers (prepared with InitTimer
// and embedded in a component) are rearmed in place with Reset and
// cancelled with Stop; pooled one-shot timers never leave the engine.
// Timers are not safe for concurrent use; the engine is a
// single-threaded simulator by design.
type Timer struct {
	at  Time
	seq uint64
	// idx is the timer's position in the far heap, valid only while
	// it is queued in the far tier; a near timer's slot is scanned for.
	// Tracking it makes Stop an O(log n) eager removal instead of
	// leaving cancelled timers to be drained at their deadline (which
	// let long runs with many cancelled retransmission timers grow the
	// heap without bound).
	idx int
	// queued reports heap membership; false in the zero value, so an
	// embedded timer is safely unarmed before InitTimer runs.
	queued bool
	far    bool // a queued timer's tier: the far heap, else the near run
	pooled bool // recycled into the engine free-list when it fires

	eng *Engine
	h   Handler
}

// Stop cancels the timer, removing it from the event heap immediately.
// It reports whether the call prevented the timer from firing (false
// if it had already fired, been stopped, or was never armed).
//
//qoe:hotpath
func (t *Timer) Stop() bool {
	if t == nil || !t.queued {
		return false
	}
	t.eng.heapRemove(t)
	return true
}

// When returns the absolute time the timer fires (or was scheduled to
// fire).
func (t *Timer) When() Time { return t.at }

// Armed reports whether the timer is currently queued to fire. The
// zero value reports false.
func (t *Timer) Armed() bool { return t != nil && t.queued }

// Reset (re)arms an owned timer to fire d after the engine's current
// time, whether it is armed, stopped or has fired. It must only be
// used on timers prepared with InitTimer. Like every arming operation
// it draws a fresh sequence number, so a Reset orders after events
// already scheduled for the same instant.
//
//qoe:hotpath
func (t *Timer) Reset(d time.Duration) {
	if d < 0 {
		d = 0
	}
	t.ResetAt(t.eng.now.Add(d))
}

// ResetAt is Reset with an absolute fire time. Times in the past are
// clamped to now.
//
//qoe:hotpath
func (t *Timer) ResetAt(at Time) {
	e := t.eng
	if e == nil || t.h == nil {
		panic("sim: ResetAt on a timer not prepared with InitTimer")
	}
	e.seq++
	t.arm(at, e.seq)
}

// ResetAtSeq is ResetAt under a sequence number drawn earlier with
// Engine.ReserveSeq instead of a fresh one: the timer fires exactly
// where a one-shot scheduled at reservation time would have. The
// caller owns the number and must arm at most one event with it.
//
//qoe:hotpath
func (t *Timer) ResetAtSeq(at Time, seq uint64) {
	e := t.eng
	if e == nil || t.h == nil {
		panic("sim: ResetAtSeq on a timer not prepared with InitTimer")
	}
	if seq == 0 || seq > e.seq {
		panic("sim: ResetAtSeq with a sequence number that was never reserved")
	}
	t.arm(at, seq)
}

// arm keys the owned timer (past times clamp to now) and (re)queues
// it. A queued timer leaves its tier before it is re-keyed, since a
// near slot holds the key it was filed under; only a re-arm that stays
// in the far heap is repositioned in place.
//
//qoe:hotpath
func (t *Timer) arm(at Time, seq uint64) {
	e := t.eng
	if at < e.now {
		at = e.now
	}
	if t.queued {
		if t.far && at-e.now >= nearHorizon {
			t.at, t.seq = at, seq
			e.far.fix(t.idx)
			return
		}
		e.heapRemove(t)
	}
	t.at, t.seq = at, seq
	e.heapPush(t)
}

// Engine is a discrete-event simulator. The zero value is not usable;
// construct with New.
type Engine struct {
	now     Time
	seq     uint64
	near    []nearSlot // timers armed to fire within nearHorizon, latest first
	far     timerHeap  // timers armed to fire nearHorizon or later
	free    []*Timer   // recycled pooled one-shot timers
	running bool
	halted  bool

	// Executed counts events that have fired; useful for tests and
	// runaway detection.
	Executed uint64

	// MaxEvents, if non-zero, aborts Run with a panic after this many
	// events — a guard against accidental infinite event loops in
	// model code.
	MaxEvents uint64

	// met holds the engine's telemetry counters: plain ints, updated
	// unconditionally on the dispatch path. The engine is
	// single-threaded, so increments cost one add each — no atomics,
	// no branches, no allocations — and callers that don't care simply
	// never read them. Flushed per cell via Metrics.
	met Metrics
}

// Metrics is a snapshot of the engine's internal counters: events
// fired per kind, pooled-timer recycles, and the deepest the event
// heaps ever ran. Read it with Engine.Metrics after (or during) a run.
type Metrics struct {
	// Fired-event counts per kind of event. Their sum equals Executed.
	EventsPooled uint64 // pooled one-shots
	EventsOwned  uint64 // owned reschedulable timers
	// TimerRecycles counts pooled timers returned to the free-list.
	TimerRecycles uint64
	// HeapHighWater is the maximum number of queued events observed,
	// both tiers together.
	HeapHighWater int
	// NearHighWater is the deepest the near tier ran: the heap that
	// almost every dispatched event sifts through.
	NearHighWater int
}

// Metrics returns a copy of the engine's telemetry counters.
func (e *Engine) Metrics() Metrics { return e.met }

// New returns an empty engine with the clock at zero.
func New() *Engine {
	return &Engine{}
}

// Reset returns the engine to its freshly constructed state — clock at
// zero, sequence counter at zero, empty event queue, counters cleared
// — while keeping the pooled-timer free-list warm, so a reused engine
// behaves bit-identically to a new one but stops paying the
// steady-state timer allocations again. Pending events are discarded:
// pooled timers are recycled and owned timers are simply unhooked
// (their components may rearm them with Reset/ResetAt as usual).
// MaxEvents is preserved.
func (e *Engine) Reset() {
	if e.running {
		panic("sim: Reset during Run")
	}
	for i, s := range e.near {
		e.near[i] = nearSlot{}
		e.discard(s.t)
	}
	e.near = e.near[:0]
	for i, t := range e.far {
		e.far[i] = nil
		e.discard(t)
	}
	e.far = e.far[:0]
	e.now, e.seq = 0, 0
	e.halted = false
	e.Executed = 0
	e.met = Metrics{}
}

// discard unhooks one queued timer for Reset; the caller empties the
// tiers, keeping their backing arrays.
func (e *Engine) discard(t *Timer) {
	t.queued = false
	if t.pooled {
		e.recycle(t)
	}
}

// Now returns the current simulation time.
func (e *Engine) Now() Time { return e.now }

// ReserveSeq draws n consecutive sequence numbers and returns the
// first. The caller arms its events under them later with
// Timer.ResetAtSeq; each orders against everything else exactly as if
// it had been scheduled at the moment of reservation.
//
//qoe:hotpath
func (e *Engine) ReserveSeq(n int) uint64 {
	if n < 0 {
		panic("sim: ReserveSeq with a negative count")
	}
	first := e.seq + 1
	e.seq += uint64(n)
	return first
}

// InitTimer prepares an owned, reschedulable timer dispatching to h.
// The timer is typically a field of the component implementing h, so
// arming and rearming it never allocates. It starts unarmed; use
// Reset/ResetAt to arm and Stop to cancel.
func (e *Engine) InitTimer(t *Timer, h Handler) {
	if h == nil {
		panic("sim: InitTimer with nil handler")
	}
	if t.queued {
		// Zeroing an armed timer would leave a stale pointer in the
		// event heap whose idx no longer matches its slot, silently
		// corrupting the heap much later; fail loudly instead.
		panic("sim: InitTimer on an armed timer (Stop it first)")
	}
	*t = Timer{eng: e, h: h}
}

// ScheduleHandler fires h after delay d. The event's Timer comes from
// the engine's free-list and is recycled when it fires: steady-state
// scheduling allocates nothing, and no handle is returned.
//
//qoe:hotpath
func (e *Engine) ScheduleHandler(d time.Duration, h Handler) {
	if d < 0 {
		d = 0
	}
	e.AtHandler(e.now.Add(d), h)
}

// AtHandler fires h at absolute time t (clamped to Now), using a
// Timer taken from the free-list (or allocated when it is empty).
//
//qoe:hotpath
func (e *Engine) AtHandler(t Time, h Handler) {
	if h == nil {
		panic("sim: AtHandler called with nil handler")
	}
	if t < e.now {
		t = e.now
	}
	var tm *Timer
	if n := len(e.free); n > 0 {
		tm = e.free[n-1]
		e.free[n-1] = nil
		e.free = e.free[:n-1]
	} else {
		tm = &Timer{eng: e}
	}
	e.seq++
	tm.at, tm.seq, tm.pooled, tm.h = t, e.seq, true, h
	e.heapPush(tm)
}

// recycle returns a pooled timer to the free-list.
//
//qoe:hotpath
func (e *Engine) recycle(t *Timer) {
	t.h, t.pooled = nil, false
	e.free = append(e.free, t)
	e.met.TimerRecycles++
}

// Pending reports the number of events in the queue. Stopped timers
// are removed eagerly, so they are never counted.
func (e *Engine) Pending() int { return len(e.near) + len(e.far) }

// Halt stops the run loop after the current event completes. Unlike
// draining the queue, pending events remain queued.
func (e *Engine) Halt() { e.halted = true }

// Run executes events until the queue is empty or Halt is called.
func (e *Engine) Run() {
	e.RunUntil(Time(1<<63 - 1))
}

// RunUntil executes events with time <= t, then advances the clock to
// exactly t (if t is beyond the last event). It stops early if the
// queue empties or Halt is called.
//
//qoe:hotpath
func (e *Engine) RunUntil(t Time) {
	if e.running {
		panic("sim: re-entrant Run")
	}
	e.running = true
	e.halted = false
	//lint:allow qoelint/hotpath one closure per RunUntil call, not per event; dispatch below is allocation-free
	defer func() { e.running = false }()

	for !e.halted {
		next := e.pop(t)
		if next == nil {
			break
		}
		if next.at > e.now {
			e.now = next.at
		}
		e.Executed++
		if e.MaxEvents != 0 && e.Executed > e.MaxEvents {
			e.maxEventsExceeded()
		}
		// Read the handler into a local first: a pooled timer is
		// recycled before its handler runs, so the handler (or anything
		// it schedules) may immediately reuse the Timer struct.
		h := next.h
		if next.pooled {
			e.recycle(next)
			e.met.EventsPooled++
		} else {
			e.met.EventsOwned++
		}
		h.Fire(e.now)
	}
	if !e.halted && e.now < t && t != Time(1<<63-1) {
		e.now = t
	}
}

// RunFor advances the simulation by d from the current time.
func (e *Engine) RunFor(d time.Duration) {
	e.RunUntil(e.now.Add(d))
}

// maxEventsExceeded panics describing the runaway event loop. It is a
// separate, unannotated function so the formatting stays off the
// RunUntil dispatch path.
func (e *Engine) maxEventsExceeded() {
	panic(fmt.Sprintf("sim: exceeded MaxEvents=%d at t=%v", e.MaxEvents, e.now))
}

// --- event queue ------------------------------------------------------
//
// Two tiers on one (at, seq) key, one per tier of time (see the package
// doc). The near tier holds timers armed to fire less than nearHorizon
// out — packet hops, serialization ticks, media frames — and the far
// tier everything else, mostly retransmission and delayed-ACK deadlines
// that are stopped long before they are due. A far timer is never
// migrated; it wins the root comparison in pop when its time comes.
//
// The near tier is small (a mean of 6–9 timers on the backbone, at
// most 20 across the experiment registry), so it is a sorted run
// rather than a heap: a pop truncates it, and a push shifts only the
// slots due sooner, which on the backbone is 2–4. Each slot carries its
// key, so neither walks through *Timer pointers. The far tier is a
// 4-ary min-heap with index tracking, which is what makes eager Stop
// and in-place Reset O(log n): the wider node fans out better than a
// binary heap here, since sift-downs touch fewer levels (fewer cache
// lines) and push is dominated by sift-up, cheaper the shallower the
// tree.

// nearHorizon is the filing rule's threshold: a timer armed to fire
// less than this long after the current time goes to the near tier.
// Anything from 100 µs to 10 ms measures the same; at 100 ms the
// delayed ACKs land in the near tier and most of the gain is lost.
const nearHorizon = Time(time.Millisecond)

// nearSlot is one near-tier entry: a queued timer under the key it was
// filed with.
type nearSlot struct {
	at  Time
	seq uint64
	t   *Timer
}

// timerHeap is the far tier: a 4-ary min-heap whose timers know their
// index.
type timerHeap []*Timer

// less orders timers by (time, sequence); seq is unique, so the order
// is total and pop order is independent of heap layout.
//
//qoe:hotpath
func less(a, b *Timer) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// pop dequeues the earliest queued timer across both tiers and returns
// it, or returns nil if the queue is empty or that timer is due after
// limit.
//
//qoe:hotpath
func (e *Engine) pop(limit Time) *Timer {
	if n := len(e.near); n > 0 {
		s := e.near[n-1]
		if len(e.far) == 0 || s.at < e.far[0].at || s.at == e.far[0].at && s.seq < e.far[0].seq {
			if s.at > limit {
				return nil
			}
			e.near[n-1].t = nil
			e.near = e.near[:n-1]
			s.t.queued = false
			return s.t
		}
	}
	if len(e.far) == 0 || e.far[0].at > limit {
		return nil
	}
	t := e.far[0]
	e.far.remove(t)
	t.queued = false
	return t
}

// heapPush files a timer by the horizon rule and queues it.
//
//qoe:hotpath
func (e *Engine) heapPush(t *Timer) {
	t.queued = true
	t.far = t.at-e.now >= nearHorizon
	if t.far {
		e.far.push(t)
	} else {
		e.nearPush(t)
		if n := len(e.near); n > e.met.NearHighWater {
			e.met.NearHighWater = n
		}
	}
	if n := len(e.near) + len(e.far); n > e.met.HeapHighWater {
		e.met.HeapHighWater = n
	}
}

// heapRemove unlinks a queued timer from its tier.
//
//qoe:hotpath
func (e *Engine) heapRemove(t *Timer) {
	if t.far {
		e.far.remove(t)
	} else {
		e.nearRemove(t)
	}
	t.queued = false
}

// nearPush inserts t into the near run under its key: the slots due
// sooner, all at the tail, move up one place.
//
//qoe:hotpath
func (e *Engine) nearPush(t *Timer) {
	at, seq := t.at, t.seq
	s := append(e.near, nearSlot{})
	i := len(s) - 1
	for ; i > 0; i-- {
		p := s[i-1]
		if p.at > at || p.at == at && p.seq > seq {
			break
		}
		s[i] = p
	}
	s[i] = nearSlot{at, seq, t}
	e.near = s
}

// nearRemove unlinks t from the near run (Stop, or a re-arm), scanning
// for its slot from the tail, where the timers due soonest sit.
//
//qoe:hotpath
func (e *Engine) nearRemove(t *Timer) {
	s := e.near
	i := len(s) - 1
	for s[i].t != t {
		i--
	}
	copy(s[i:], s[i+1:])
	s[len(s)-1] = nearSlot{}
	e.near = s[:len(s)-1]
}

//qoe:hotpath
func (h *timerHeap) push(t *Timer) {
	t.idx = len(*h)
	*h = append(*h, t)
	h.siftUp(t.idx)
}

// remove unlinks the timer at any position.
//
//qoe:hotpath
func (h *timerHeap) remove(t *Timer) {
	s := *h
	i := t.idx
	last := len(s) - 1
	if i != last {
		s[i] = s[last]
		s[i].idx = i
	}
	s[last] = nil
	*h = s[:last]
	if i < last {
		h.fix(i)
	}
}

//qoe:hotpath
func (h timerHeap) fix(i int) {
	if !h.siftDown(i) {
		h.siftUp(i)
	}
}

//qoe:hotpath
func (h timerHeap) siftUp(i int) {
	t := h[i]
	for i > 0 {
		parent := (i - 1) / 4
		p := h[parent]
		if !less(t, p) {
			break
		}
		h[i] = p
		p.idx = i
		i = parent
	}
	h[i] = t
	t.idx = i
}

// siftDown reports whether the element moved.
//
//qoe:hotpath
func (h timerHeap) siftDown(i int) bool {
	t := h[i]
	n := len(h)
	start := i
	for {
		first := 4*i + 1
		if first >= n {
			break
		}
		min := first
		end := first + 4
		if end > n {
			end = n
		}
		for c := first + 1; c < end; c++ {
			if less(h[c], h[min]) {
				min = c
			}
		}
		if !less(h[min], t) {
			break
		}
		h[i] = h[min]
		h[i].idx = i
		i = min
	}
	h[i] = t
	t.idx = i
	return i != start
}
