package bufferqoe

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"runtime"
	"sync"
	"testing"
)

// marshalGrid is what encoding/json writes for g at prefix.
func marshalGrid(t *testing.T, g *Grid, prefix string) []byte {
	t.Helper()
	want, err := json.MarshalIndent(g, prefix, "  ")
	if err != nil {
		t.Fatal(err)
	}
	return want
}

// checkGridJSON holds g's JSON at both prefixes to encoding/json's.
func checkGridJSON(t *testing.T, what string, g *Grid) {
	t.Helper()
	for _, prefix := range []string{"", "  "} {
		got, err := g.AppendJSON(nil, prefix)
		if err != nil {
			t.Fatal(err)
		}
		if want := marshalGrid(t, g, prefix); !bytes.Equal(got, want) {
			t.Fatalf("%s at prefix %q differs from MarshalIndent\n got: %s\nwant: %s", what, prefix, got, want)
		}
	}
}

// TestKeptJSONRendersEdits edits cells of a grid a warm re-query
// returned, after its plan has kept every cell's JSON: the grid's JSON
// must render the edits, and the unedited grid beside it must still
// render its own cells (FuzzKeptGridJSON edits a kept 0 to -0). The
// mutant this test fails is a plan that copies its kept JSON of a cell
// without checking that the grid still holds the cell it was written
// from.
func TestKeptJSONRendersEdits(t *testing.T) {
	s, sw, o := NewSession(), streamSweepSpec(), sweepOpts()
	if _, err := s.Sweep(sw, o); err != nil {
		t.Fatal(err)
	}
	g, err := s.Sweep(sw, o)
	if err != nil {
		t.Fatal(err)
	}
	checkGridJSON(t, "the warm grid", g) // keeps the JSON at both prefixes in turn
	edited, err := s.Sweep(sw, o)
	if err != nil {
		t.Fatal(err)
	}
	edited.Cells[0].MOS += 0.5
	edited.Cells[1].Rating = "edited <&>"
	edited.Cells[2].TalkMOS = 0
	edited.Cells[3].Buffer = -1
	edited.Cells[4].Value = 0
	edited.Cells[5].Value = math.Copysign(0, -1)
	checkGridJSON(t, "the edited grid", edited)
	checkGridJSON(t, "the unedited grid", g)
	edited.Cells = append(edited.Cells, g.Cells[0])
	checkGridJSON(t, "the grid with a cell appended", edited)
}

// TestKeptPlanAnswersNothing: after ResetCache a re-query of a plan
// that has kept its cells and their JSON simulates every cell again,
// and its JSON is byte-equal to the first reply's. The mutant this test
// fails is a plan that answers values from what it kept instead of the
// engine cache: it would simulate nothing.
func TestKeptPlanAnswersNothing(t *testing.T) {
	s, sw, o := NewSession(), streamSweepSpec(), sweepOpts()
	first, err := s.Sweep(sw, o)
	if err != nil {
		t.Fatal(err)
	}
	want, err := first.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if g, err := s.Sweep(sw, o); err != nil {
		t.Fatal(err)
	} else if _, err := g.JSON(); err != nil {
		t.Fatal(err)
	}
	s.ResetCache()
	g, err := s.Sweep(sw, o)
	if err != nil {
		t.Fatal(err)
	}
	if got := s.Stats().Misses; got != uint64(len(g.Cells)) {
		t.Fatalf("a re-query after ResetCache simulated %d cells, want all %d", got, len(g.Cells))
	}
	got, err := g.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("the reply after ResetCache differs from the first\n got: %s\nwant: %s", got, want)
	}
}

// TestWarmSweepStream: a stream over a warm plan yields every cell once
// and fires OnProgress once per cell, counting up; broken after k cells
// it has yielded exactly k, and leaves no goroutine behind.
func TestWarmSweepStream(t *testing.T) {
	s, sw, o := NewSession(), streamSweepSpec(), sweepOpts()
	g, err := s.Sweep(sw, o)
	if err != nil {
		t.Fatal(err)
	}
	baseline := runtime.NumGoroutine()
	total := len(g.Cells)
	var progress []int
	o.OnProgress = func(p Progress) { progress = append(progress, p.Completed) }
	seen := map[string]int{}
	for c, err := range s.SweepStream(context.Background(), sw, o) {
		if err != nil {
			t.Fatal(err)
		}
		seen[cellKey(c)]++
		if want, _ := g.Cell(c.Scenario, c.Probe, c.Buffer); c != want {
			t.Fatalf("stream yielded %+v, the grid holds %+v", c, want)
		}
	}
	if len(seen) != total {
		t.Fatalf("warm stream yielded %d distinct cells, want %d", len(seen), total)
	}
	for k, n := range seen {
		if n != 1 {
			t.Fatalf("warm stream yielded cell %s %d times", k, n)
		}
	}
	if len(progress) != total {
		t.Fatalf("OnProgress fired %d times for %d cells", len(progress), total)
	}
	for i, c := range progress {
		if c != i+1 {
			t.Fatalf("OnProgress counted %v", progress)
		}
	}
	for k := 1; k < total; k++ {
		yielded := 0
		for _, err := range s.SweepStream(context.Background(), sw, sweepOpts()) {
			if err != nil {
				t.Fatal(err)
			}
			if yielded++; yielded == k {
				break
			}
		}
		if yielded != k {
			t.Fatalf("a warm stream broken after %d cells yielded %d", k, yielded)
		}
	}
	waitForGoroutines(t, baseline)
}

// TestWarmRequeriesShareKeptJSON has goroutines re-ask one session the
// same sweep at once, each writing its reply at the prefixes "" and
// "  " in turn, so the plan's kept JSON is replaced while others copy
// from it: every reply must be byte-equal to what encoding/json writes
// for a lone session's grid.
func TestWarmRequeriesShareKeptJSON(t *testing.T) {
	sw, o := streamSweepSpec(), sweepOpts()
	lone, err := NewSession().Sweep(sw, o)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string][]byte{"": marshalGrid(t, lone, ""), "  ": marshalGrid(t, lone, "  ")}
	s := NewSession()
	if _, err := s.Sweep(sw, o); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 8*10)
	for c := range 8 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := range 10 {
				prefix := []string{"", "  "}[(c+r)%2]
				g, err := s.SweepCtx(context.Background(), sw, o)
				if err != nil {
					errs <- err
					return
				}
				if got, err := g.AppendJSON(nil, prefix); err != nil || !bytes.Equal(got, want[prefix]) {
					errs <- fmt.Errorf("caller %d, round %d, prefix %q: reply differs from a lone session's (%v)", c, r, prefix, err)
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
