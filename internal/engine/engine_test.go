package engine

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"bufferqoe/internal/telemetry"
)

func spec(buf int) CellSpec {
	return CellSpec{
		Testbed: "access", Scenario: "long-many", Direction: "up",
		Buffer: buf, Media: "voip", Seed: 42,
		Duration: 4 * time.Second, Warmup: 2 * time.Second, Reps: 1,
	}
}

func TestCanonicalDropsIdleDirection(t *testing.T) {
	a := spec(64)
	a.Scenario = "noBG"
	b := a
	b.Direction = "down"
	c := a
	c.Direction = "bidir"
	if a.Key() != b.Key() || a.Key() != c.Key() {
		t.Fatalf("noBG cells with different directions got different keys:\n%s\n%s\n%s",
			a.Key(), b.Key(), c.Key())
	}
	// A congested cell's direction must stay significant.
	up, down := spec(64), spec(64)
	down.Direction = "down"
	if up.Key() == down.Key() {
		t.Fatal("up and down congestion share a key")
	}
}

func TestCanonicalDropsBackboneDirection(t *testing.T) {
	a := spec(749)
	a.Testbed = "backbone"
	b := a
	b.Direction = ""
	if a.Key() != b.Key() {
		t.Fatalf("backbone direction not canonicalized: %s vs %s", a.Key(), b.Key())
	}
}

func TestCanonicalFoldsEqualUplinkBuffer(t *testing.T) {
	a := spec(64)
	b := spec(64)
	b.BufferUp = 64
	if a.Key() != b.Key() {
		t.Fatal("BufferUp == Buffer should fold away")
	}
	c := spec(64)
	c.BufferUp = 8
	if c.Key() == a.Key() {
		t.Fatal("distinct uplink buffer lost in canonicalization")
	}
}

func TestDeriveSeedDeterministicAndDistinct(t *testing.T) {
	s1, s2 := DeriveSeed(spec(64)), DeriveSeed(spec(64))
	if s1 != s2 {
		t.Fatalf("same spec, different seeds: %d vs %d", s1, s2)
	}
	if s1 == 0 {
		t.Fatal("derived seed is the zero sentinel")
	}
	// Different workloads draw decorrelated streams.
	seen := map[uint64]string{}
	for _, sc := range []string{"noBG", "long-few", "long-many", "short-few", "short-many"} {
		for _, dir := range []string{"up", "down"} {
			sp := spec(64)
			sp.Scenario, sp.Direction = sc, dir
			d := DeriveSeed(sp)
			if prev, dup := seen[d]; dup && prev != sp.Canonical().SeedKey() {
				t.Fatalf("seed collision between %q and %q", prev, sp.SeedKey())
			}
			seen[d] = sp.Canonical().SeedKey()
		}
	}
	// The root seed must flow into the derivation.
	other := spec(64)
	other.Seed = 43
	if DeriveSeed(other) == DeriveSeed(spec(64)) {
		t.Fatal("root seed does not affect derived seed")
	}
}

func TestDeriveSeedPairsComparisonAxes(t *testing.T) {
	// Buffer size, media, and variant are comparison axes: cells that
	// differ only there must replay the identical workload
	// realization (common random numbers), as the paper's sweeps do.
	base := DeriveSeed(spec(8))
	for _, buf := range []int{16, 32, 64, 128, 256} {
		if DeriveSeed(spec(buf)) != base {
			t.Fatalf("buffer size leaked into seed (buf=%d)", buf)
		}
	}
	v := spec(8)
	v.Variant = "queue=codel"
	if DeriveSeed(v) != base {
		t.Fatal("variant leaked into seed")
	}
	m := spec(8)
	m.Media = "web"
	if DeriveSeed(m) != base {
		t.Fatal("media leaked into seed")
	}
}

func TestDoMemoizes(t *testing.T) {
	e := New(2)
	var calls atomic.Int64
	fn := func(sp CellSpec, seed uint64, _ Scratch) any {
		calls.Add(1)
		return seed
	}
	v1 := e.Do(spec(64), fn)
	v2 := e.Do(spec(64), fn)
	if v1 != v2 {
		t.Fatalf("cached value changed: %v vs %v", v1, v2)
	}
	if calls.Load() != 1 {
		t.Fatalf("cell computed %d times", calls.Load())
	}
	st := e.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Entries != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestDoCoalescesConcurrentCallers(t *testing.T) {
	e := New(4)
	var calls atomic.Int64
	fn := func(sp CellSpec, seed uint64, _ Scratch) any {
		calls.Add(1)
		time.Sleep(20 * time.Millisecond)
		return seed
	}
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			e.Do(spec(64), fn)
		}()
	}
	wg.Wait()
	if calls.Load() != 1 {
		t.Fatalf("singleflight broken: %d computations", calls.Load())
	}
}

func TestRunBatchOrderAndParallelism(t *testing.T) {
	e := New(4)
	var inFlight, peak atomic.Int64
	fn := func(sp CellSpec, seed uint64, _ Scratch) any {
		n := inFlight.Add(1)
		for {
			p := peak.Load()
			if n <= p || peak.CompareAndSwap(p, n) {
				break
			}
		}
		time.Sleep(10 * time.Millisecond)
		inFlight.Add(-1)
		return sp.Buffer
	}
	var tasks []Task
	bufs := []int{8, 16, 32, 64, 128, 256, 512, 1024}
	for _, b := range bufs {
		tasks = append(tasks, NewTask(spec(b), CellFunc(fn)))
	}
	out, err := e.RunBatch(context.Background(), tasks)
	if err != nil {
		t.Fatal(err)
	}
	for i, b := range bufs {
		if out[i] != b {
			t.Fatalf("out[%d] = %v, want %d (order not preserved)", i, out[i], b)
		}
	}
	if peak.Load() < 2 {
		t.Fatalf("no parallelism observed (peak %d)", peak.Load())
	}
	if peak.Load() > 4 {
		t.Fatalf("worker bound exceeded: peak %d > 4", peak.Load())
	}
}

func TestSchedulingOrderIndependence(t *testing.T) {
	// The same grid submitted forwards, backwards, and one-by-one must
	// produce identical per-cell values: each value depends only on
	// the derived seed.
	fn := func(sp CellSpec, seed uint64, _ Scratch) any {
		return fmt.Sprintf("%s:%d", sp.Scenario, seed%1000)
	}
	var fwd, rev []Task
	for _, b := range []int{8, 16, 32, 64} {
		fwd = append(fwd, NewTask(spec(b), CellFunc(fn)))
	}
	for i := len(fwd) - 1; i >= 0; i-- {
		rev = append(rev, fwd[i])
	}
	a, errA := New(8).RunBatch(context.Background(), fwd)
	b, errB := New(1).RunBatch(context.Background(), rev)
	if errA != nil || errB != nil {
		t.Fatal(errA, errB)
	}
	for i := range a {
		if a[i] != b[len(b)-1-i] {
			t.Fatalf("cell %d differs across schedules: %v vs %v", i, a[i], b[len(b)-1-i])
		}
	}
}

func TestPanickingCellDoesNotPoisonEngine(t *testing.T) {
	e := New(1) // one slot: a leaked slot would hang everything below
	boom := func(CellSpec, uint64, Scratch) any { panic("cell exploded") }
	mustPanic := func() (r any) {
		defer func() { r = recover() }()
		e.Do(spec(8), boom)
		return nil
	}
	if r := mustPanic(); r != "cell exploded" {
		t.Fatalf("panic not propagated to computing caller: %v", r)
	}
	// The poisoned entry must be gone: a retry recomputes...
	var calls atomic.Int64
	good := func(sp CellSpec, seed uint64, _ Scratch) any { calls.Add(1); return seed }
	e.Do(spec(8), good)
	if calls.Load() != 1 {
		t.Fatalf("retry after panic computed %d times", calls.Load())
	}
	// ...and the worker slot was released: a different cell still runs.
	done := make(chan struct{})
	go func() { e.Do(spec(16), good); close(done) }()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("worker slot leaked by panicking cell")
	}
	if e.Stats().Entries != 2 {
		t.Fatalf("cache entries = %d, want 2 (panicked entry dropped)", e.Stats().Entries)
	}
}

func TestPanicPropagatesToCoalescedWaiters(t *testing.T) {
	e := New(2)
	started := make(chan struct{})
	slow := func(CellSpec, uint64, Scratch) any {
		close(started)
		time.Sleep(20 * time.Millisecond)
		panic("late boom")
	}
	recovered := make(chan any, 2)
	run := func(fn CellFunc) {
		defer func() { recovered <- recover() }()
		e.Do(spec(8), fn)
		recovered <- nil
	}
	go run(slow)
	<-started
	go run(slow) // coalesces onto the in-flight computation
	for i := 0; i < 2; i++ {
		if r := <-recovered; r != "late boom" {
			t.Fatalf("caller %d got %v, want the cell's panic", i, r)
		}
	}
}

// TestSubmitBatchReportsPanickingCell: a panicking cell of a batch is
// its task's error — and the error of a task coalesced onto it — not
// a crash of the process; the other tasks report their values, and
// the engine stays usable.
func TestSubmitBatchReportsPanickingCell(t *testing.T) {
	e := New(2)
	fn := func(sp CellSpec, seed uint64, _ Scratch) any {
		if sp.Buffer == 16 {
			time.Sleep(10 * time.Millisecond) // let the duplicate coalesce
			panic("cell exploded")
		}
		return sp.Buffer
	}
	bufs := []int{8, 16, 32, 16, 64}
	var tasks []Task
	for _, b := range bufs {
		tasks = append(tasks, NewTask(spec(b), CellFunc(fn)))
	}
	var mu sync.Mutex
	vals, errs := map[int]any{}, map[int]error{}
	e.SubmitBatch(context.Background(), tasks, func(i int, v any, err error) {
		mu.Lock()
		defer mu.Unlock()
		vals[i], errs[i] = v, err
	})
	for i, b := range bufs {
		if b == 16 {
			if !errors.Is(errs[i], ErrCellPanicked) || vals[i] != nil ||
				!strings.HasPrefix(errs[i].Error(), "engine: cell panicked: cell exploded\n") ||
				!strings.Contains(errs[i].Error(), "goroutine ") {
				t.Fatalf("task %d: v=%v err=%v, want the cell's panic and stack as an error", i, vals[i], errs[i])
			}
			continue
		}
		if errs[i] != nil || vals[i] != b {
			t.Fatalf("task %d: v=%v err=%v, want %d", i, vals[i], errs[i], b)
		}
	}
	if _, err := e.RunBatch(context.Background(), tasks); !errors.Is(err, ErrCellPanicked) {
		t.Fatalf("RunBatch err = %v, want ErrCellPanicked", err)
	}
	if st := e.Stats(); st.InFlight != 0 || st.QueueDepth != 0 || st.Waiters != 0 || st.Entries != 3 {
		t.Fatalf("stats after panics = %+v, want idle gauges and 3 entries", st)
	}
}

// doOne runs one cell as a one-task batch: the way a caller with a
// context reaches the engine.
func doOne(e *Engine, ctx context.Context, sp CellSpec, fn CellFunc) (any, error) {
	vs, err := e.RunBatch(ctx, []Task{NewTask(sp, fn)})
	if err != nil {
		return nil, err
	}
	return vs[0], nil
}

func TestBatchCanceledBeforeStart(t *testing.T) {
	e := New(2)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var calls atomic.Int64
	fn := func(CellSpec, uint64, Scratch) any { calls.Add(1); return 1 }
	if _, err := doOne(e, ctx, spec(8), fn); !errors.Is(err, ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
	if calls.Load() != 0 {
		t.Fatal("canceled call executed the cell")
	}
	st := e.Stats()
	if st.Canceled != 1 || st.Entries != 0 || st.Misses != 0 {
		t.Fatalf("stats = %+v", st)
	}
	// The engine is unpoisoned: a live call computes normally.
	if v := e.Do(spec(8), fn); v != 1 || calls.Load() != 1 {
		t.Fatalf("retry after cancellation: v=%v calls=%d", v, calls.Load())
	}
}

func TestBatchCanceledWhileQueued(t *testing.T) {
	e := New(1) // one slot, occupied: the second call must queue
	release := make(chan struct{})
	started := make(chan struct{})
	slow := func(CellSpec, uint64, Scratch) any {
		close(started)
		<-release
		return "slow"
	}
	go e.Do(spec(8), slow)
	<-started

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := doOne(e, ctx, spec(16), func(CellSpec, uint64, Scratch) any { return "fast" })
		done <- err
	}()
	// Give the queued call time to block on the semaphore, then cancel:
	// it must return promptly without waiting for the slow cell.
	time.Sleep(10 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, ErrCanceled) {
			t.Fatalf("queued call returned %v, want ErrCanceled", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("canceled queued call did not return promptly")
	}
	close(release)
	// The abandoned cell left no cache entry: a later call recomputes.
	var calls atomic.Int64
	e.Do(spec(16), func(CellSpec, uint64, Scratch) any { calls.Add(1); return "fast" })
	if calls.Load() != 1 {
		t.Fatalf("abandoned cell cached? calls = %d", calls.Load())
	}
}

func TestBatchWaiterCancellation(t *testing.T) {
	e := New(2)
	release := make(chan struct{})
	started := make(chan struct{})
	slow := func(CellSpec, uint64, Scratch) any {
		close(started)
		<-release
		return "v"
	}
	go e.Do(spec(8), slow)
	<-started

	// A waiter coalesced onto the in-flight cell gives up on cancel...
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := doOne(e, ctx, spec(8), slow); !errors.Is(err, ErrCanceled) {
		t.Fatalf("coalesced waiter returned %v, want ErrCanceled", err)
	}
	// ...while the in-flight computation drains and is cached.
	close(release)
	if v := e.Do(spec(8), func(CellSpec, uint64, Scratch) any { return "recomputed" }); v != "v" {
		t.Fatalf("drained cell not cached: got %v", v)
	}
}

func TestCanceledEntryWakesCoalescedWaiters(t *testing.T) {
	e := New(1)
	release := make(chan struct{})
	started := make(chan struct{})
	go e.Do(spec(8), func(CellSpec, uint64, Scratch) any {
		close(started)
		<-release
		return "slow"
	})
	<-started

	// Caller A queues for spec(16) and owns its entry; caller B
	// coalesces onto that entry with a live context. When A is
	// canceled, B must be woken, retry, and compute the cell itself.
	ctxA, cancelA := context.WithCancel(context.Background())
	aQueued := make(chan struct{})
	go func() {
		close(aQueued)
		doOne(e, ctxA, spec(16), func(CellSpec, uint64, Scratch) any { return "A" })
	}()
	<-aQueued
	time.Sleep(10 * time.Millisecond) // let A register its entry and queue

	bDone := make(chan any, 1)
	go func() {
		v, err := doOne(e, context.Background(), spec(16), func(CellSpec, uint64, Scratch) any { return "B" })
		if err != nil {
			bDone <- err
			return
		}
		bDone <- v
	}()
	time.Sleep(10 * time.Millisecond) // let B coalesce onto A's entry
	cancelA()
	close(release)
	select {
	case v := <-bDone:
		if v != "B" && v != "A" {
			t.Fatalf("waiter got %v, want a computed value", v)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("waiter behind a canceled owner never woke")
	}
}

func TestSubmitBatchCompletionCallbacks(t *testing.T) {
	e := New(4)
	fn := func(sp CellSpec, seed uint64, _ Scratch) any { return sp.Buffer }
	bufs := []int{8, 16, 32, 64}
	var tasks []Task
	for _, b := range bufs {
		tasks = append(tasks, NewTask(spec(b), CellFunc(fn)))
	}
	var mu sync.Mutex
	got := map[int]any{}
	e.SubmitBatch(context.Background(), tasks, func(i int, v any, err error) {
		if err != nil {
			t.Errorf("task %d: %v", i, err)
		}
		mu.Lock()
		got[i] = v
		mu.Unlock()
	})
	if len(got) != len(bufs) {
		t.Fatalf("callbacks for %d/%d tasks", len(got), len(bufs))
	}
	for i, b := range bufs {
		if got[i] != b {
			t.Fatalf("task %d = %v, want %d", i, got[i], b)
		}
	}
}

// TestSubmitBatchAnswersCachedCellsInline: a warm batch is answered on
// the submitting goroutine — callbacks arrive in submission order
// before SubmitBatch spawns anything — with the hit accounting of Do;
// a panicked cell, a canceled context and a cold cell still take the
// goroutine path.
func TestSubmitBatchAnswersCachedCellsInline(t *testing.T) {
	e := New(4)
	col := telemetry.New()
	e.SetCollector(col)
	fn := func(sp CellSpec, seed uint64, _ Scratch) any {
		if sp.Buffer == 13 {
			panic("unlucky")
		}
		return sp.Buffer
	}
	var tasks []Task
	for b := 1; b <= 12; b++ {
		tasks = append(tasks, NewTask(spec(b), CellFunc(fn)))
	}
	if _, err := e.RunBatch(context.Background(), tasks); err != nil {
		t.Fatal(err)
	}
	tasks = append(tasks, NewTask(spec(99), CellFunc(fn))) // cold

	var order []int // unsynchronized on purpose: -race sees any second goroutine
	e.SubmitBatch(context.Background(), tasks, func(i int, v any, err error) {
		if err != nil || v != tasks[i].Spec().Buffer {
			t.Errorf("task %d = %v, %v", i, v, err)
		}
		if i < len(tasks)-1 {
			order = append(order, i)
		}
	})
	for i, got := range order {
		if got != i {
			t.Fatalf("warm callbacks arrived as %v, want submission order", order)
		}
	}
	if st := e.Stats(); st.Hits != 12 || st.Misses != 13 || col.CacheHits.Value() != 12 {
		t.Fatalf("hits %d (collector %d) misses %d, want 12, 12, 13", st.Hits, col.CacheHits.Value(), st.Misses)
	}

	// A canceled context reports every task canceled, cached or not.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var canceled atomic.Int64
	e.SubmitBatch(ctx, tasks, func(i int, v any, err error) {
		if errors.Is(err, ErrCanceled) {
			canceled.Add(1)
		}
	})
	if canceled.Load() != int64(len(tasks)) || e.Stats().Hits != 12 {
		t.Fatalf("canceled batch: %d of %d callbacks canceled, hits %d", canceled.Load(), len(tasks), e.Stats().Hits)
	}

	// A panicked cell leaves no entry to answer from: the retry
	// recomputes (and panics again) on its caller's goroutine.
	func() {
		defer func() { recover() }()
		e.Do(spec(13), fn)
	}()
	if _, ok := e.cached(context.Background(), spec(13).Key(), nil); ok {
		t.Fatal("a panicked cell was answered from the cache")
	}
}

func TestSubmitBatchCancellationDrainsInFlight(t *testing.T) {
	e := New(1) // serialize: first task in flight, rest queued
	ctx, cancel := context.WithCancel(context.Background())
	var executed atomic.Int64
	firstRunning := make(chan struct{})
	var once sync.Once
	fn := func(sp CellSpec, seed uint64, _ Scratch) any {
		once.Do(func() {
			close(firstRunning)
			// Give the cancellation time to land while this cell is
			// mid-execution: it must still run to completion.
			time.Sleep(30 * time.Millisecond)
		})
		executed.Add(1)
		return sp.Buffer
	}
	var tasks []Task
	for _, b := range []int{8, 16, 32, 64, 128, 256} {
		tasks = append(tasks, NewTask(spec(b), CellFunc(fn)))
	}
	go func() {
		<-firstRunning
		cancel()
	}()
	var okCount, canceledCount atomic.Int64
	e.SubmitBatch(ctx, tasks, func(i int, v any, err error) {
		switch {
		case err == nil:
			okCount.Add(1)
		case errors.Is(err, ErrCanceled):
			canceledCount.Add(1)
		default:
			t.Errorf("task %d: unexpected error %v", i, err)
		}
	})
	if okCount.Load() < 1 {
		t.Fatal("in-flight cell did not drain to completion")
	}
	if canceledCount.Load() < 1 {
		t.Fatal("no queued cell was abandoned")
	}
	if okCount.Load()+canceledCount.Load() != int64(len(tasks)) {
		t.Fatalf("callbacks: %d ok + %d canceled != %d tasks",
			okCount.Load(), canceledCount.Load(), len(tasks))
	}
	if st := e.Stats(); st.Canceled != uint64(canceledCount.Load()) {
		t.Fatalf("Stats.Canceled = %d, callbacks saw %d", st.Canceled, canceledCount.Load())
	}
}

func TestSetWorkersAndReset(t *testing.T) {
	e := New(0)
	if e.Workers() < 1 {
		t.Fatalf("default workers = %d", e.Workers())
	}
	e.SetWorkers(3)
	if e.Workers() != 3 || e.Stats().Workers != 3 {
		t.Fatalf("workers = %d", e.Workers())
	}
	e.Do(spec(8), func(CellSpec, uint64, Scratch) any { return 1 })
	if e.Stats().Entries != 1 {
		t.Fatal("missing cache entry")
	}
	e.ResetCache()
	st := e.Stats()
	if st.Entries != 0 || st.Hits != 0 || st.Misses != 0 {
		t.Fatalf("reset left stats %+v", st)
	}
}

// TestWarmBatchKeysNothing: a task is keyed when it is built, so
// submitting a batch whose cells are all cached renders no spec or key
// per task — what lets a caller that keeps its batch re-ask it for a
// map lookup a cell. The budget is what SubmitBatch itself allocates,
// however many tasks the batch holds.
func TestWarmBatchKeysNothing(t *testing.T) {
	e := New(2)
	fn := CellFunc(func(sp CellSpec, _ uint64, _ Scratch) any { return sp.Buffer })
	var tasks []Task
	for b := 1; b <= 64; b++ {
		tasks = append(tasks, NewTask(spec(b), fn))
	}
	if _, err := e.RunBatch(context.Background(), tasks); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		e.SubmitBatch(context.Background(), tasks, func(int, any, error) {})
	})
	if allocs > 1 {
		t.Fatalf("a warm 64-task batch allocates %.0f, want at most 1", allocs)
	}
}
