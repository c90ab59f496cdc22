package sim

import (
	"math"
	"testing"
	"testing/quick"
	"time"
)

func TestScheduleOrder(t *testing.T) {
	e := New()
	var got []int
	e.ScheduleHandler(3*time.Millisecond, Func(func() { got = append(got, 3) }))
	e.ScheduleHandler(1*time.Millisecond, Func(func() { got = append(got, 1) }))
	e.ScheduleHandler(2*time.Millisecond, Func(func() { got = append(got, 2) }))
	e.Run()
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
}

func TestSameInstantFIFO(t *testing.T) {
	e := New()
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		e.ScheduleHandler(time.Millisecond, Func(func() { got = append(got, i) }))
	}
	e.Run()
	for i := range got {
		if got[i] != i {
			t.Fatalf("same-instant events out of FIFO order: %v", got)
		}
	}
}

func TestClockAdvances(t *testing.T) {
	e := New()
	var at Time
	e.ScheduleHandler(5*time.Second, Func(func() { at = e.Now() }))
	e.Run()
	if at != Time(5*time.Second) {
		t.Fatalf("event ran at %v, want 5s", at)
	}
	if e.Now() != Time(5*time.Second) {
		t.Fatalf("clock = %v, want 5s", e.Now())
	}
}

func TestRunUntilStopsAndAdvances(t *testing.T) {
	e := New()
	fired := 0
	e.ScheduleHandler(1*time.Second, Func(func() { fired++ }))
	e.ScheduleHandler(10*time.Second, Func(func() { fired++ }))
	e.RunUntil(Time(2 * time.Second))
	if fired != 1 {
		t.Fatalf("fired = %d, want 1", fired)
	}
	if e.Now() != Time(2*time.Second) {
		t.Fatalf("clock = %v, want 2s", e.Now())
	}
	e.Run()
	if fired != 2 {
		t.Fatalf("fired = %d after Run, want 2", fired)
	}
}

func TestTimerStop(t *testing.T) {
	e := New()
	ran := false
	var tm Timer
	e.InitTimer(&tm, Func(func() { ran = true }))
	tm.Reset(time.Second)
	if !tm.Stop() {
		t.Fatal("Stop returned false on pending timer")
	}
	if tm.Stop() {
		t.Fatal("second Stop returned true")
	}
	e.Run()
	if ran {
		t.Fatal("stopped timer fired")
	}
}

func TestStopAfterFire(t *testing.T) {
	e := New()
	var tm Timer
	e.InitTimer(&tm, Func(func() {}))
	tm.Reset(time.Millisecond)
	e.Run()
	if tm.Stop() {
		t.Fatal("Stop after fire returned true")
	}
}

func TestReschedulingInsideEvent(t *testing.T) {
	e := New()
	count := 0
	var tick Func
	tick = func() {
		count++
		if count < 5 {
			e.ScheduleHandler(time.Second, tick)
		}
	}
	e.ScheduleHandler(time.Second, tick)
	e.Run()
	if count != 5 {
		t.Fatalf("count = %d, want 5", count)
	}
	if e.Now() != Time(5*time.Second) {
		t.Fatalf("clock = %v, want 5s", e.Now())
	}
}

func TestHalt(t *testing.T) {
	e := New()
	count := 0
	for i := 1; i <= 10; i++ {
		e.ScheduleHandler(time.Duration(i)*time.Millisecond, Func(func() {
			count++
			if count == 3 {
				e.Halt()
			}
		}))
	}
	e.Run()
	if count != 3 {
		t.Fatalf("count = %d, want 3 (halted)", count)
	}
	if e.Pending() != 7 {
		t.Fatalf("pending = %d, want 7", e.Pending())
	}
}

func TestNegativeDelayClamped(t *testing.T) {
	e := New()
	var tm Timer
	e.InitTimer(&tm, Func(func() {}))
	e.ScheduleHandler(time.Second, Func(func() {
		tm.Reset(-time.Minute)
		if tm.When() != e.Now() {
			t.Errorf("negative delay armed for %v, want now %v", tm.When(), e.Now())
		}
	}))
	e.Run()
}

func TestTimeArithmetic(t *testing.T) {
	var a Time = Time(1500 * time.Millisecond)
	if a.Seconds() != 1.5 {
		t.Fatalf("Seconds = %v, want 1.5", a.Seconds())
	}
	b := a.Add(500 * time.Millisecond)
	if b.Sub(a) != 500*time.Millisecond {
		t.Fatalf("Sub = %v", b.Sub(a))
	}
	if a.String() != "1.5s" {
		t.Fatalf("String = %q", a.String())
	}
}

// Property: for any schedule of events, execution order is sorted by
// time with ties broken by insertion order.
func TestPropertyExecutionSorted(t *testing.T) {
	f := func(delays []uint16) bool {
		if len(delays) == 0 {
			return true
		}
		e := New()
		type rec struct {
			at  Time
			seq int
		}
		var fired []rec
		for i, d := range delays {
			d := time.Duration(d) * time.Microsecond
			i := i
			e.ScheduleHandler(d, Func(func() { fired = append(fired, rec{e.Now(), i}) }))
		}
		e.Run()
		if len(fired) != len(delays) {
			return false
		}
		for i := 1; i < len(fired); i++ {
			if fired[i].at < fired[i-1].at {
				return false
			}
			if fired[i].at == fired[i-1].at && fired[i].seq < fired[i-1].seq {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestRNGDeterminism(t *testing.T) {
	a := NewRNG(42, "tcp")
	b := NewRNG(42, "tcp")
	for i := 0; i < 100; i++ {
		if a.Float64() != b.Float64() {
			t.Fatal("same (seed, stream) produced different sequences")
		}
	}
	c := NewRNG(42, "voip")
	same := true
	a2 := NewRNG(42, "tcp")
	for i := 0; i < 16; i++ {
		if a2.Float64() != c.Float64() {
			same = false
		}
	}
	if same {
		t.Fatal("different streams produced identical sequences")
	}
}

func TestExponentialMean(t *testing.T) {
	r := NewRNG(1, "exp")
	const n = 200000
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += r.Exponential(2.0)
	}
	mean := sum / n
	if math.Abs(mean-2.0) > 0.05 {
		t.Fatalf("exponential mean = %v, want ~2.0", mean)
	}
}

func TestWeibullMean(t *testing.T) {
	// Weibull(shape=0.35, scale=10039) has mean scale*Gamma(1+1/shape).
	// Gamma(1+1/0.35) = Gamma(3.857..) ~ 4.9415; the paper quotes a
	// mean flow size of ~50 KB with these parameters.
	r := NewRNG(7, "weibull")
	const n = 400000
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += r.Weibull(0.35, 10039)
	}
	mean := sum / n
	if mean < 40000 || mean > 62000 {
		t.Fatalf("weibull(0.35, 10039) mean = %v, want ~50000", mean)
	}
}

func TestParetoBounds(t *testing.T) {
	r := NewRNG(3, "pareto")
	for i := 0; i < 1000; i++ {
		v := r.Pareto(5, 1.5)
		if v < 5 {
			t.Fatalf("pareto draw %v below minimum", v)
		}
	}
}

func TestUniformRange(t *testing.T) {
	r := NewRNG(9, "uniform")
	for i := 0; i < 1000; i++ {
		v := r.Uniform(3, 7)
		if v < 3 || v >= 7 {
			t.Fatalf("uniform draw %v outside [3,7)", v)
		}
	}
}

func TestMaxEventsGuard(t *testing.T) {
	e := New()
	e.MaxEvents = 10
	var loop Func
	loop = func() { e.ScheduleHandler(time.Millisecond, loop) }
	e.ScheduleHandler(time.Millisecond, loop)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic from MaxEvents guard")
		}
	}()
	e.Run()
}
