package voip

import (
	"testing"
	"time"

	"bufferqoe/internal/testbed"
)

func runPair(t *testing.T, a *testbed.Testbed) PairResult {
	t.Helper()
	var got *PairResult
	StartPair(a.MediaClient, a.MediaServer, Activity(4, 0), Activity(4, 1), 0,
		func(pr PairResult) { got = &pr })
	a.Eng.RunFor(25 * time.Second)
	if got == nil {
		t.Fatal("pair never finished")
	}
	return *got
}

func TestPairCleanLine(t *testing.T) {
	a := testbed.NewAccess(testbed.Config{BufferUp: 8, BufferDown: 64, Seed: 1})
	pr := runPair(t, a)
	if pr.Listen.MOS < 4.0 || pr.Talk.MOS < 4.0 {
		t.Fatalf("clean pair MOS = %.2f/%.2f", pr.Listen.MOS, pr.Talk.MOS)
	}
	if pr.ConversationalDelay > 150*time.Millisecond {
		t.Fatalf("conversational delay = %v", pr.ConversationalDelay)
	}
}

func TestPairSharesDelayImpairment(t *testing.T) {
	// Paper Figure 7b "user listens": with a bloated congested uplink,
	// the listen direction's signal is clean but its MOS drops because
	// the conversational delay is shared (paper: 4.2 -> ~2.1-2.3 at
	// buffers >= 64).
	a := testbed.NewAccess(testbed.Config{BufferUp: 256, BufferDown: 256, Seed: 2})
	a.StartWorkload(testbed.MustSpec(testbed.LookupAccessScenario("long-many", testbed.DirUp)))
	a.Eng.RunFor(10 * time.Second)
	pr := runPair(t, a)
	if pr.Listen.Z1 < 3.8 {
		t.Fatalf("listen signal z1 = %v, want clean", pr.Listen.Z1)
	}
	if pr.Listen.MOS > 3.0 {
		t.Fatalf("listen MOS = %v, want degraded by conversational delay", pr.Listen.MOS)
	}
	if pr.ConversationalDelay < 500*time.Millisecond {
		t.Fatalf("conversational delay = %v, want bloated", pr.ConversationalDelay)
	}
	// Both directions report the same (symmetrized) delay.
	if pr.Listen.OneWayDelay != pr.Talk.OneWayDelay {
		t.Fatal("pair delays not symmetrized")
	}
}
