package bufferqoe

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"testing"
	"time"
)

// streamSweepSpec is a small grid whose cells are cheap but numerous
// enough to have queued work at cancellation time.
func streamSweepSpec() Sweep {
	return Sweep{
		Scenarios: []Scenario{{Workload: "noBG"}, {Workload: "short-few", Direction: Up}},
		Buffers:   []int{8, 32, 128},
		Probes:    []Probe{{Media: VoIP}},
	}
}

func cellKey(c SweepCell) string {
	return fmt.Sprintf("%s|%s|%d", c.Scenario, c.Probe, c.Buffer)
}

// TestSweepStreamMatchesBatch is the streaming acceptance check: the
// stream and the batch grid must agree bit-for-bit on every cell's
// value, even though the stream yields in completion order on a cold
// parallel session and the batch ran elsewhere.
func TestSweepStreamMatchesBatch(t *testing.T) {
	sw := streamSweepSpec()
	o := sweepOpts()

	batch, err := NewSession().Sweep(sw, o)
	if err != nil {
		t.Fatal(err)
	}

	streamed := map[string]SweepCell{}
	s := NewSession()
	for c, err := range s.SweepStream(context.Background(), sw, o) {
		if err != nil {
			t.Fatal(err)
		}
		streamed[cellKey(c)] = c
	}
	if len(streamed) != len(batch.Cells) {
		t.Fatalf("stream yielded %d cells, batch has %d", len(streamed), len(batch.Cells))
	}
	for _, want := range batch.Cells {
		got, ok := streamed[cellKey(want)]
		if !ok {
			t.Fatalf("stream missing cell %s", cellKey(want))
		}
		if got != want {
			t.Fatalf("stream cell %s = %+v, batch %+v", cellKey(want), got, want)
		}
	}

	// The stream populated the session cache exactly like a batch
	// would: re-sweeping simulates nothing new.
	before := s.Stats()
	again, err := s.Sweep(sw, o)
	if err != nil {
		t.Fatal(err)
	}
	after := s.Stats()
	if after.Misses != before.Misses {
		t.Fatalf("batch after stream re-simulated %d cells", after.Misses-before.Misses)
	}
	for i := range again.Cells {
		if again.Cells[i] != batch.Cells[i] {
			t.Fatalf("warm batch cell %d diverged: %+v vs %+v", i, again.Cells[i], batch.Cells[i])
		}
	}
}

// TestSweepStreamProgress: OnProgress fires once per cell with a
// monotone counter, for both the stream and the batch wrapper.
func TestSweepStreamProgress(t *testing.T) {
	sw := streamSweepSpec()
	total := len(sw.Scenarios) * len(sw.Buffers) * len(sw.Probes)
	for _, mode := range []string{"stream", "batch"} {
		var events []Progress
		o := sweepOpts()
		o.OnProgress = func(p Progress) { events = append(events, p) }
		s := NewSession()
		switch mode {
		case "stream":
			for _, err := range s.SweepStream(context.Background(), sw, o) {
				if err != nil {
					t.Fatal(err)
				}
			}
		case "batch":
			if _, err := s.Sweep(sw, o); err != nil {
				t.Fatal(err)
			}
		}
		if len(events) != total {
			t.Fatalf("%s: %d progress events, want %d", mode, len(events), total)
		}
		for i, p := range events {
			if p.Completed != i+1 || p.Total != total {
				t.Fatalf("%s: event %d = %d/%d, want %d/%d", mode, i, p.Completed, p.Total, i+1, total)
			}
			if p.Cell.Scenario == "" || p.Cell.Buffer == 0 {
				t.Fatalf("%s: event %d has no cell: %+v", mode, i, p)
			}
		}
	}
}

// waitForGoroutines polls until the goroutine count settles back to
// (or below) the baseline, tolerating the documented drain window for
// in-flight cells.
func waitForGoroutines(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		runtime.GC() // flush finished goroutines' stacks
		n := runtime.NumGoroutine()
		if n <= baseline {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("goroutines leaked: %d > baseline %d\n%s",
				n, baseline, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// TestSweepStreamAbandonHygiene: breaking out of a stream
// mid-iteration leaks no goroutines and leaves the session cache
// consistent — a subsequent identical sweep on the same session is
// bit-identical to a fresh session's.
func TestSweepStreamAbandonHygiene(t *testing.T) {
	sw := streamSweepSpec()
	o := sweepOpts()
	baseline := runtime.NumGoroutine()
	s := NewSession()
	s.SetParallelism(2)
	t.Cleanup(func() { waitForGoroutines(t, baseline) })

	yielded := 0
	for _, err := range s.SweepStream(context.Background(), sw, o) {
		if err != nil {
			t.Fatal(err)
		}
		yielded++
		break // abandon after the first cell
	}
	if yielded != 1 {
		t.Fatalf("yielded %d cells before break", yielded)
	}

	// The abandoned remainder must not poison the cache: the full
	// sweep on this session matches a cold session bit-for-bit.
	warm, err := s.Sweep(sw, o)
	if err != nil {
		t.Fatal(err)
	}
	cold, err := NewSession().Sweep(sw, o)
	if err != nil {
		t.Fatal(err)
	}
	for i := range cold.Cells {
		if warm.Cells[i] != cold.Cells[i] {
			t.Fatalf("cell %d after abandonment diverged: %+v vs %+v", i, warm.Cells[i], cold.Cells[i])
		}
	}
}

// TestSweepStreamCancellation: canceling the context mid-stream
// surfaces ErrCanceled promptly, counts abandoned cells in Stats, and
// leaks no goroutines.
func TestSweepStreamCancellation(t *testing.T) {
	sw := streamSweepSpec()
	o := sweepOpts()
	baseline := runtime.NumGoroutine()
	s := NewSession()
	s.SetParallelism(1) // guarantee queued cells at cancellation time
	t.Cleanup(func() { waitForGoroutines(t, baseline) })

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var sawCancel bool
	start := time.Now()
	for _, err := range s.SweepStream(ctx, sw, o) {
		if err != nil {
			if !errors.Is(err, ErrCanceled) {
				t.Fatalf("stream error = %v, want ErrCanceled", err)
			}
			sawCancel = true
			break
		}
		cancel() // first completed cell: abandon the rest
	}
	if !sawCancel {
		t.Fatal("canceled stream never yielded ErrCanceled")
	}
	if elapsed := time.Since(start); elapsed > 30*time.Second {
		t.Fatalf("cancellation not prompt: %v", elapsed)
	}
	if st := s.Stats(); st.Canceled == 0 {
		t.Fatalf("no canceled cells counted: %+v", st)
	}
}

// TestSweepCtxCanceledBeforeStart: a pre-canceled context runs
// nothing at all.
func TestSweepCtxCanceledBeforeStart(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	s := NewSession()
	if _, err := s.SweepCtx(ctx, streamSweepSpec(), sweepOpts()); !errors.Is(err, ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
	if st := s.Stats(); st.Misses != 0 {
		t.Fatalf("pre-canceled sweep simulated %d cells", st.Misses)
	}
}

// TestRunCtxCancellation: the experiment-runner path surfaces
// cancellation as an ordinary ErrCanceled return, and RunAllCtx
// records it per outcome.
func TestRunCtxCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	s := NewSession()
	if _, err := s.RunCtx(ctx, "fig7b", probeOpts()); !errors.Is(err, ErrCanceled) {
		t.Fatalf("RunCtx err = %v, want ErrCanceled", err)
	}
	outcomes := s.RunAllCtx(ctx, []string{"fig7a", "fig7b"}, probeOpts())
	for _, oc := range outcomes {
		if !errors.Is(oc.Err, ErrCanceled) {
			t.Fatalf("outcome %s err = %v, want ErrCanceled", oc.ID, oc.Err)
		}
	}
}

// TestSweepStreamValidationError: an invalid sweep yields its error
// without simulating anything.
func TestSweepStreamValidationError(t *testing.T) {
	s := NewSession()
	sw := Sweep{
		Scenarios: []Scenario{{Workload: "definitely-not-a-scenario"}},
		Buffers:   []int{8},
		Probes:    []Probe{{Media: VoIP}},
	}
	var got error
	for _, err := range s.SweepStream(context.Background(), sw, sweepOpts()) {
		got = err
	}
	if got == nil {
		t.Fatal("invalid sweep streamed without error")
	}
	if st := s.Stats(); st.Misses != 0 {
		t.Fatalf("invalid sweep simulated %d cells", st.Misses)
	}
}
