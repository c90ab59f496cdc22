package sim

import (
	"fmt"
	"slices"
	"testing"
	"time"
)

// This file holds the engine to the one-heap ordering it had before the
// queue was split into a near and a far tier. refEngine keeps the old
// rules — clamp to now, one fresh sequence number per arming, fire in
// (at, seq) order — over a plain sorted list, and orderScript replays one
// byte-decoded stream of operations against it and against the real
// Engine. Fire traces, Executed, Pending, Armed, Stop answers and both
// high-water marks must agree after every operation, and the real
// engine's tiers must pass checkTiers after every one.

const (
	scriptOwned = 4 // owned timers, labels 0..3
	scriptFires = 2000
	maxTime     = Time(1<<63 - 1)
)

// obs is one observation of a script run: an event fired, an answer
// returned, or a counter read after an operation.
type obs struct {
	what string
	a, b int64
}

func (o obs) String() string { return fmt.Sprintf("%s(%d,%d)", o.what, o.a, o.b) }

// fireAction is what an owned timer does from inside its own Fire.
type fireAction struct {
	rearm bool
	d     time.Duration
	halt  bool
	stop  int // owned slot to stop, or -1
}

// orderModel is the operation set both implementations expose to a
// script.
type orderModel interface {
	now() Time
	scheduleHandler(d time.Duration, label int)
	reset(slot int, d time.Duration)
	resetAt(slot int, at Time)
	reserveSeq(n int) uint64
	resetAtSeq(slot int, at Time, seq uint64)
	stop(slot int) bool
	halt()
	runUntil(t Time)
	engineReset()
	armed(slot int) bool
	pending() int
	executed() uint64
	highWater() (all, near int)
	// invariant reports a broken internal invariant, or nil.
	invariant() error
}

// orderScript decodes operations from bytes and records what a model
// does with them.
type orderScript struct {
	m     orderModel
	log   []obs
	act   [scriptOwned]fireAction
	fires int
	label int
	err   error // the first invariant the model broke
}

// fired records one event and runs an owned timer's action. Actions stop
// after scriptFires events so a timer re-arming itself at zero delay
// cannot loop forever.
func (s *orderScript) fired(label int) {
	s.fires++
	s.log = append(s.log, obs{"fire", int64(s.m.now()), int64(label)})
	if label >= scriptOwned || s.fires > scriptFires {
		return
	}
	a := s.act[label]
	if a.stop >= 0 {
		s.log = append(s.log, obs{"stop-in-fire", int64(a.stop), b2i(s.m.stop(a.stop))})
	}
	if a.rearm {
		s.m.reset(label, a.d)
	}
	if a.halt {
		s.m.halt()
	}
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// Delay selectors: the horizon's neighbourhood, well past it, and a
// byte-scaled value spanning both tiers (64 steps to the horizon).
const (
	dZero = iota
	dBelow
	dAt
	dAbove
	dFar
	dRand
	dChoices
)

func scriptDelay(sel, raw byte) time.Duration {
	h := time.Duration(nearHorizon)
	switch int(sel) % dChoices {
	case dZero:
		return 0
	case dBelow:
		return h - 1
	case dAt:
		return h
	case dAbove:
		return h + 1
	case dFar:
		return 10 * h
	}
	return time.Duration(raw) * h / 64
}

// Operation codes.
const (
	opScheduleHandler = iota
	opReset
	opResetAt
	opReserveArm
	opStop
	opAction
	opRunUntil
	opEngineReset
	opHalt
	opCount
)

// run decodes data into operations and applies them, observing the
// model's counters after each one and draining the queue at the end.
func (s *orderScript) run(data []byte) {
	for i := range s.act {
		s.act[i] = fireAction{stop: -1}
	}
	pos := 0
	next := func() byte {
		if pos >= len(data) {
			return 0
		}
		pos++
		return data[pos-1]
	}
	for n := 0; pos < len(data); n++ {
		s.step(int(next())%opCount, next)
		s.observe()
		s.check(n)
	}
	s.m.runUntil(maxTime)
	s.m.runUntil(maxTime) // once more, in case a Halt cut the first short
	s.observe()
	s.check(-1)
}

// check keeps the first invariant failure, tagged with the operation
// that caused it (-1: the final drain).
func (s *orderScript) check(op int) {
	if err := s.m.invariant(); err != nil && s.err == nil {
		s.err = fmt.Errorf("after operation %d: %w", op, err)
	}
}

func (s *orderScript) step(op int, next func() byte) {
	m := s.m
	s.label++
	label := 100 + s.label
	switch op {
	case opScheduleHandler:
		m.scheduleHandler(scriptDelay(next(), next()), label)
	case opReset:
		slot := int(next()) % scriptOwned
		m.reset(slot, scriptDelay(next(), next()))
	case opResetAt:
		b := next()
		d := Time(scriptDelay(next(), next()))
		at := m.now() + d
		if b&0x80 != 0 {
			at = m.now() - d // in the past: clamps to now
		}
		m.resetAt(int(b)%scriptOwned, at)
	case opReserveArm:
		b := next()
		n := 1 + int(b>>2)%3
		first := m.reserveSeq(n)
		m.resetAtSeq(int(b)%scriptOwned, m.now().Add(scriptDelay(next(), next())), first+uint64(int(b>>4)%n))
	case opStop:
		slot := int(next()) % scriptOwned
		s.log = append(s.log, obs{"stop", int64(slot), b2i(m.stop(slot))})
	case opAction:
		slot := int(next()) % scriptOwned
		f := next()
		a := fireAction{rearm: f&1 != 0, halt: f&2 != 0, stop: -1, d: scriptDelay(next(), next())}
		if f&4 != 0 {
			a.stop = int(f>>3) % scriptOwned
		}
		s.act[slot] = a
	case opRunUntil:
		m.runUntil(m.now().Add(scriptDelay(next(), next())))
	case opEngineReset:
		m.engineReset()
	case opHalt:
		m.halt()
	}
}

func (s *orderScript) observe() {
	m := s.m
	s.log = append(s.log, obs{"now", int64(m.now()), int64(m.pending())}, obs{"executed", int64(m.executed()), 0})
	for i := 0; i < scriptOwned; i++ {
		s.log = append(s.log, obs{"armed", int64(i), b2i(m.armed(i))})
	}
	all, near := m.highWater()
	s.log = append(s.log, obs{"high-water", int64(all), int64(near)})
}

// --- reference: the one-heap ordering as a sorted list -----------------

type refEvent struct {
	at    Time
	seq   uint64
	label int
	near  bool // the tier the filing rule puts it in
}

type refEngine struct {
	s        *orderScript
	clock    Time
	seq      uint64
	q        []*refEvent // sorted by (at, seq)
	owned    [scriptOwned]*refEvent
	halted   bool
	execs    uint64
	high     int
	nearHigh int
}

func refLess(a, b *refEvent) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// arm keys ev (clamping the past to now), files it by the horizon rule
// and inserts it in order.
func (r *refEngine) arm(ev *refEvent, at Time, seq uint64) {
	if at < r.clock {
		at = r.clock
	}
	ev.at, ev.seq, ev.near = at, seq, at-r.clock < nearHorizon
	i, _ := slices.BinarySearchFunc(r.q, ev, func(a, b *refEvent) int {
		if refLess(a, b) {
			return -1
		}
		return 1
	})
	r.q = slices.Insert(r.q, i, ev)
	r.high = max(r.high, len(r.q))
	near := 0
	for _, e := range r.q {
		if e.near {
			near++
		}
	}
	r.nearHigh = max(r.nearHigh, near)
}

func (r *refEngine) unlink(ev *refEvent) {
	r.q = slices.DeleteFunc(r.q, func(e *refEvent) bool { return e == ev })
}

func (r *refEngine) now() Time { return r.clock }

func (r *refEngine) scheduleHandler(d time.Duration, label int) {
	r.seq++
	r.arm(&refEvent{label: label}, r.clock.Add(max(d, 0)), r.seq)
}

func (r *refEngine) reset(slot int, d time.Duration) { r.resetAt(slot, r.clock.Add(max(d, 0))) }

func (r *refEngine) resetAt(slot int, at Time) {
	r.seq++
	r.resetAtSeq(slot, at, r.seq)
}

func (r *refEngine) reserveSeq(n int) uint64 {
	first := r.seq + 1
	r.seq += uint64(n)
	return first
}

func (r *refEngine) resetAtSeq(slot int, at Time, seq uint64) {
	if ev := r.owned[slot]; ev != nil {
		r.unlink(ev)
	}
	ev := &refEvent{label: slot}
	r.owned[slot] = ev
	r.arm(ev, at, seq)
}

func (r *refEngine) stop(slot int) bool {
	ev := r.owned[slot]
	if ev == nil {
		return false
	}
	r.unlink(ev)
	r.owned[slot] = nil
	return true
}

func (r *refEngine) halt() { r.halted = true }

func (r *refEngine) runUntil(t Time) {
	r.halted = false
	for !r.halted && len(r.q) > 0 && r.q[0].at <= t {
		ev := r.q[0]
		r.q = r.q[1:]
		r.clock = max(r.clock, ev.at)
		r.execs++
		if ev.label < scriptOwned && r.owned[ev.label] == ev {
			r.owned[ev.label] = nil
		}
		r.s.fired(ev.label)
	}
	if !r.halted && r.clock < t && t != maxTime {
		r.clock = t
	}
}

func (r *refEngine) engineReset() {
	*r = refEngine{s: r.s}
}

func (r *refEngine) armed(slot int) bool   { return r.owned[slot] != nil }
func (r *refEngine) pending() int          { return len(r.q) }
func (r *refEngine) executed() uint64      { return r.execs }
func (r *refEngine) highWater() (int, int) { return r.high, r.nearHigh }
func (r *refEngine) invariant() error      { return nil }

// --- the real engine ------------------------------------------------------

// scriptCase is one situation in the real engine's tiers that the seed
// corpus must reach, as a bit.
type scriptCase uint

const (
	crossNearToFar scriptCase = 1 << iota // a queued timer re-armed across the horizon
	crossFarToNear
	fireNearToFar // re-armed across the horizon from its own Fire
	fireFarToNear
	stopNearRoot
	stopNearInner
	stopFarRoot
	stopFarInner
	farBeatsNear // a far timer fires while the near tier is not empty
	farWinsTie   // ... and due at the same instant as the near root
	resetBothTiers
	haltInFire
	armReserved
	allCases = 1<<iota - 1
)

type engineModel struct {
	s      *orderScript
	e      *Engine
	owned  [scriptOwned]Timer
	firers [scriptOwned]slotFirer
	seen   scriptCase
}

type slotFirer struct {
	m    *engineModel
	slot int
}

func (f *slotFirer) Fire(now Time) {
	m, t := f.m, &f.m.owned[f.slot]
	wasFar := t.far
	if n := len(m.e.near); wasFar && n > 0 {
		m.seen |= farBeatsNear
		if m.e.near[n-1].at == t.at {
			m.seen |= farWinsTie
		}
	}
	m.s.fired(f.slot)
	if t.queued && t.far != wasFar {
		if wasFar {
			m.seen |= fireFarToNear
		} else {
			m.seen |= fireNearToFar
		}
	}
	if m.e.halted {
		m.seen |= haltInFire
	}
}

func newEngineModel(s *orderScript) *engineModel {
	m := &engineModel{s: s, e: New()}
	for i := range m.owned {
		m.firers[i] = slotFirer{m, i}
		m.e.InitTimer(&m.owned[i], &m.firers[i])
	}
	return m
}

func (m *engineModel) now() Time { return m.e.Now() }

func (m *engineModel) scheduleHandler(d time.Duration, label int) {
	m.e.ScheduleHandler(d, Func(func() { m.s.fired(label) }))
}

// rearmed notes a queued timer's re-arm that crossed the horizon.
func (m *engineModel) rearmed(t *Timer, wasQueued, wasFar bool) {
	if wasQueued && t.far != wasFar {
		if wasFar {
			m.seen |= crossFarToNear
		} else {
			m.seen |= crossNearToFar
		}
	}
}

func (m *engineModel) reset(slot int, d time.Duration) {
	t := &m.owned[slot]
	q, f := t.queued, t.far
	t.Reset(d)
	m.rearmed(t, q, f)
}

func (m *engineModel) resetAt(slot int, at Time) {
	t := &m.owned[slot]
	q, f := t.queued, t.far
	t.ResetAt(at)
	m.rearmed(t, q, f)
}

func (m *engineModel) reserveSeq(n int) uint64 { return m.e.ReserveSeq(n) }

func (m *engineModel) resetAtSeq(slot int, at Time, seq uint64) {
	t := &m.owned[slot]
	q, f := t.queued, t.far
	t.ResetAtSeq(at, seq)
	m.rearmed(t, q, f)
	m.seen |= armReserved
}

func (m *engineModel) stop(slot int) bool {
	t := &m.owned[slot]
	if t.queued {
		switch {
		case t.far && t.idx == 0:
			m.seen |= stopFarRoot
		case t.far:
			m.seen |= stopFarInner
		case m.e.near[len(m.e.near)-1].t == t: // the earliest near slot
			m.seen |= stopNearRoot
		default:
			m.seen |= stopNearInner
		}
	}
	return t.Stop()
}

func (m *engineModel) halt()           { m.e.Halt() }
func (m *engineModel) runUntil(t Time) { m.e.RunUntil(t) }

func (m *engineModel) engineReset() {
	if len(m.e.near) > 0 && len(m.e.far) > 0 {
		m.seen |= resetBothTiers
	}
	m.e.Reset()
}

func (m *engineModel) armed(slot int) bool { return m.owned[slot].Armed() }
func (m *engineModel) pending() int        { return m.e.Pending() }
func (m *engineModel) executed() uint64    { return m.e.Executed }

func (m *engineModel) highWater() (int, int) {
	met := m.e.Metrics()
	return met.HeapHighWater, met.NearHighWater
}

func (m *engineModel) invariant() error {
	var timers []*Timer
	for i := range m.owned {
		timers = append(timers, &m.owned[i])
	}
	return checkTiers(m.e, timers)
}

// checkTiers reports the first way e's queue breaks its layout: the
// near run strictly descending by (at, seq), each slot holding its
// timer's key, the far tier a 4-ary heap whose timers know their index,
// every queued timer flagged with its own tier, and Pending counting
// both. Each of known (timers the caller holds) must sit in exactly
// the tier its flags name, or in none if it is not queued.
func checkTiers(e *Engine, known []*Timer) error {
	in := map[*Timer]int{}
	for i, s := range e.near {
		if i > 0 {
			if p := e.near[i-1]; p.at < s.at || p.at == s.at && p.seq <= s.seq {
				return fmt.Errorf("near slots %d (%v,%d) and %d (%v,%d) are not strictly descending", i-1, p.at, p.seq, i, s.at, s.seq)
			}
		}
		if s.t.at != s.at || s.t.seq != s.seq {
			return fmt.Errorf("near slot %d holds key (%v,%d), its timer (%v,%d)", i, s.at, s.seq, s.t.at, s.t.seq)
		}
		if !s.t.queued || s.t.far {
			return fmt.Errorf("near slot %d: timer queued=%v far=%v", i, s.t.queued, s.t.far)
		}
		in[s.t]++
	}
	for i, t := range e.far {
		if i > 0 && less(t, e.far[(i-1)/4]) {
			return fmt.Errorf("far heap entry %d orders before its parent", i)
		}
		if t.idx != i || !t.queued || !t.far {
			return fmt.Errorf("far heap entry %d: idx=%d queued=%v far=%v", i, t.idx, t.queued, t.far)
		}
		in[t]++
	}
	for _, t := range known {
		if n := in[t]; t.queued && n != 1 || !t.queued && n != 0 {
			return fmt.Errorf("timer (%v,%d) queued=%v sits in the tiers %d times", t.at, t.seq, t.queued, n)
		}
	}
	if n := len(e.near) + len(e.far); n != e.Pending() {
		return fmt.Errorf("tiers hold %d timers, Pending reports %d", n, e.Pending())
	}
	return nil
}

// compareOrder runs data against both implementations and reports the
// first observation where they part, plus the cases the real engine's
// run reached.
func compareOrder(data []byte) (scriptCase, error) {
	ref := &orderScript{}
	ref.m = &refEngine{s: ref}
	ref.run(data)
	got := &orderScript{}
	em := newEngineModel(got)
	got.m = em
	got.run(data)
	if got.err != nil {
		return em.seen, got.err
	}
	for i := range min(len(ref.log), len(got.log)) {
		if ref.log[i] != got.log[i] {
			lo := max(0, i-6)
			return em.seen, fmt.Errorf("observation %d: engine %v, one-heap reference %v\nengine    %v\nreference %v",
				i, got.log[i], ref.log[i], got.log[lo:i+1], ref.log[lo:i+1])
		}
	}
	if len(ref.log) != len(got.log) {
		return em.seen, fmt.Errorf("engine made %d observations, reference %d", len(got.log), len(ref.log))
	}
	return em.seen, nil
}

// --- seed corpus ------------------------------------------------------------

func ops(o ...[]byte) []byte { return slices.Concat(o...) }

func reset(slot, sel byte) []byte     { return []byte{opReset, slot, sel, 0} }
func runFor(sel, raw byte) []byte     { return []byte{opRunUntil, sel, raw} }
func stop(slot byte) []byte           { return []byte{opStop, slot} }
func pooled(sel, raw byte) []byte     { return []byte{opScheduleHandler, sel, raw} }
func action(slot, f, sel byte) []byte { return []byte{opAction, slot, f, sel, 0} }

// eventOrderSeeds reach every scriptCase between them (checked
// by TestEventOrderSeedsReachEveryCase).
var eventOrderSeeds = [][]byte{
	// A queued owned timer re-armed across the horizon, out and back.
	ops(reset(0, dFar), reset(1, dBelow), reset(0, dBelow), reset(1, dAt), reset(0, dAbove), runFor(dFar, 0)),
	// Re-arms across the horizon from inside Fire, both ways, with a
	// Stop of another timer from the same Fire.
	ops(action(0, 1|4|2<<3, dFar), action(1, 1, dBelow), reset(0, dZero), reset(1, dFar), reset(2, dFar), runFor(dFar, 0), runFor(dFar, 0)),
	// Stop a non-root, then the root, in each tier.
	ops(reset(0, dBelow), reset(1, dZero), stop(0), stop(1), reset(2, dFar), reset(3, dAbove), stop(2), stop(3)),
	// A far deadline comes due while a near timer is queued behind it.
	ops(reset(0, dFar), runFor(dRand, 255), runFor(dRand, 255), runFor(dRand, 98), pooled(dBelow, 0), reset(1, dBelow), runFor(dFar, 0)),
	// ... and ties a near timer at the same instant: the far one was
	// armed first, so it fires first.
	ops(reset(0, dFar), runFor(dAbove, 0), runFor(dRand, 128), runFor(dRand, 128), runFor(dRand, 128), runFor(dRand, 128),
		reset(1, dBelow), pooled(dBelow, 0), runFor(dFar, 0)),
	// Engine.Reset with pooled and owned timers in both tiers, then
	// reuse: a timer the reset unhooked cannot be stopped.
	ops(pooled(dFar, 0), pooled(dZero, 0), pooled(dAbove, 0), pooled(dBelow, 0),
		reset(0, dBelow), reset(1, dFar), []byte{opEngineReset},
		stop(1), reset(0, dFar), runFor(dFar, 0), pooled(dRand, 77), stop(0)),
	// Halt from inside Fire leaves the rest queued; Halt outside a run
	// changes nothing.
	ops(action(0, 2, 0), reset(0, dBelow), reset(1, dAbove), pooled(dAt, 0), []byte{opHalt}, runFor(dFar, 0), runFor(dFar, 0)),
	// Reserved numbers: arm under the middle of a block, in the past
	// (clamped) and across the horizon.
	ops(runFor(dRand, 200), []byte{opReserveArm, 2<<2 | 1<<4, dFar, 0, opResetAt, 0x80 | 2, dAbove, 0},
		[]byte{opReserveArm, 2 << 2, dBelow, 0}, pooled(dAbove, 0), runFor(dFar, 0)),
	// A timer re-arming itself at zero delay until the action cap.
	ops(action(3, 1, dZero), reset(3, dZero), runFor(dZero, 0)),
}

// TestEventOrderSeedsReachEveryCase keeps the seed corpus honest: each
// case the two tiers must get right is reached by at least one seed.
func TestEventOrderSeedsReachEveryCase(t *testing.T) {
	var all scriptCase
	for i, data := range eventOrderSeeds {
		seen, err := compareOrder(data)
		if err != nil {
			t.Fatalf("seed %d: %v", i, err)
		}
		all |= seen
	}
	if all != allCases {
		t.Fatalf("seed corpus reaches cases %013b, want %013b (bit i is the i-th scriptCase)", all, allCases)
	}
}

// FuzzEventOrder requires the two-tier engine to fire, answer and count
// exactly like the one-heap reference on any operation stream.
func FuzzEventOrder(f *testing.F) {
	for _, data := range eventOrderSeeds {
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if _, err := compareOrder(data); err != nil {
			t.Fatal(err)
		}
	})
}

// --- near-run mutants ---------------------------------------------------------

// nearMutants are nearPush with one deliberate fault each. checkTiers
// must reject the run each one builds from the keys of nearMutantKeys,
// while the real nearPush passes.
var nearMutants = []struct {
	name string
	push func(e *Engine, t *Timer)
}{
	{"ties broken by at alone", func(e *Engine, t *Timer) {
		s := append(e.near, nearSlot{})
		i := len(s) - 1
		for ; i > 0 && s[i-1].at < t.at; i-- {
			s[i] = s[i-1]
		}
		s[i] = nearSlot{t.at, t.seq, t}
		e.near = s
	}},
	{"insertion stops one slot early", func(e *Engine, t *Timer) {
		s := append(e.near, nearSlot{})
		i := len(s) - 1
		for ; i > 1; i-- {
			p := s[i-1]
			if p.at > t.at || p.at == t.at && p.seq > t.seq {
				break
			}
			s[i] = p
		}
		s[i] = nearSlot{t.at, t.seq, t}
		e.near = s
	}},
}

// nearMutantKeys fill a near run the way a busy link does: same-instant
// events in FIFO order, then one due after everything queued.
var nearMutantKeys = []struct {
	at  Time
	seq uint64
}{{10, 1}, {10, 2}, {5, 3}, {10, 4}, {20, 5}}

func TestNearRunRejectsMutants(t *testing.T) {
	build := func(push func(*Engine, *Timer)) *Engine {
		e := New()
		for _, k := range nearMutantKeys {
			tm := &Timer{at: k.at, seq: k.seq, eng: e, queued: true}
			push(e, tm)
		}
		return e
	}
	if err := checkTiers(build((*Engine).nearPush), nil); err != nil {
		t.Fatalf("nearPush: %v", err)
	}
	for _, m := range nearMutants {
		if checkTiers(build(m.push), nil) == nil {
			t.Errorf("mutant %q passes checkTiers", m.name)
		}
	}
}
