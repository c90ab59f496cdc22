package stats

import (
	"math"
	"math/rand/v2"
	"testing"
	"testing/quick"
)

func TestWelfordBasics(t *testing.T) {
	var w Welford
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		w.Add(x)
	}
	if w.N() != 8 {
		t.Fatalf("N = %d", w.N())
	}
	if math.Abs(w.Mean()-5) > 1e-12 {
		t.Fatalf("mean = %v, want 5", w.Mean())
	}
	// population variance is 4; sample variance is 32/7.
	if math.Abs(w.Var()-32.0/7.0) > 1e-12 {
		t.Fatalf("var = %v, want %v", w.Var(), 32.0/7.0)
	}
	if w.Min() != 2 || w.Max() != 9 {
		t.Fatalf("min/max = %v/%v", w.Min(), w.Max())
	}
}

func TestWelfordEmptyAndSingle(t *testing.T) {
	var w Welford
	if w.Mean() != 0 || w.Std() != 0 {
		t.Fatal("empty Welford not zero")
	}
	w.Add(3)
	if w.Mean() != 3 || w.Var() != 0 {
		t.Fatalf("single-obs mean/var = %v/%v", w.Mean(), w.Var())
	}
}

func TestQuantile(t *testing.T) {
	var s Sample
	for i := 1; i <= 100; i++ {
		s.Add(float64(i))
	}
	if got := s.Median(); math.Abs(got-50.5) > 1e-9 {
		t.Fatalf("median = %v, want 50.5", got)
	}
	if got := s.Quantile(0); got != 1 {
		t.Fatalf("q0 = %v", got)
	}
	if got := s.Quantile(1); got != 100 {
		t.Fatalf("q1 = %v", got)
	}
	if got := s.Quantile(0.25); math.Abs(got-25.75) > 1e-9 {
		t.Fatalf("q25 = %v, want 25.75", got)
	}
}

func TestQuantileEmpty(t *testing.T) {
	var s Sample
	if s.Quantile(0.5) != 0 {
		t.Fatal("empty quantile should be 0")
	}
}

func TestFracBelowAbove(t *testing.T) {
	var s Sample
	for i := 0; i < 10; i++ {
		s.Add(float64(i * 10)) // 0,10,...,90
	}
	if got := s.FracBelow(50); got != 0.5 {
		t.Fatalf("FracBelow(50) = %v, want 0.5", got)
	}
	if got := s.FracAbove(50); got != 0.4 {
		t.Fatalf("FracAbove(50) = %v, want 0.4", got)
	}
}

// Property: quantile is monotone in q and bounded by min/max.
func TestPropertyQuantileMonotone(t *testing.T) {
	f := func(raw []float64, q1, q2 float64) bool {
		var s Sample
		ok := false
		for _, x := range raw {
			if !math.IsNaN(x) && !math.IsInf(x, 0) {
				s.Add(x)
				ok = true
			}
		}
		if !ok {
			return true
		}
		a := math.Mod(math.Abs(q1), 1)
		b := math.Mod(math.Abs(q2), 1)
		if a > b {
			a, b = b, a
		}
		qa, qb := s.Quantile(a), s.Quantile(b)
		return qa <= qb && qa >= s.Quantile(0) && qb <= s.Quantile(1)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestBoxplot(t *testing.T) {
	var s Sample
	for i := 1; i <= 11; i++ {
		s.Add(float64(i))
	}
	b := BoxplotOf(&s)
	if b.Median != 6 {
		t.Fatalf("median = %v", b.Median)
	}
	if b.Q1 != 3.5 || b.Q3 != 8.5 {
		t.Fatalf("quartiles = %v/%v", b.Q1, b.Q3)
	}
	if b.Min != 1 || b.Max != 11 {
		t.Fatalf("extremes = %v/%v", b.Min, b.Max)
	}
	if b.N != 11 {
		t.Fatalf("N = %d", b.N)
	}
}

func TestHistPDFIntegratesToOne(t *testing.T) {
	h := NewHist(0, 10, 20)
	r := rand.New(rand.NewPCG(1, 2))
	for i := 0; i < 10000; i++ {
		h.Add(r.Float64() * 10)
	}
	pdf := h.PDF()
	w := 0.5
	sum := 0.0
	for _, p := range pdf {
		sum += p * w
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("pdf integral = %v, want 1", sum)
	}
}

func TestHistClamping(t *testing.T) {
	h := NewHist(0, 10, 10)
	h.Add(-5)
	h.Add(15)
	if h.Counts[0] != 1 || h.Counts[9] != 1 {
		t.Fatalf("clamping failed: %v", h.Counts)
	}
}

func TestLogHist(t *testing.T) {
	l := NewLogHist(1, 10000, 40)
	for i := 0; i < 100; i++ {
		l.Add(100)
	}
	if l.N() != 100 {
		t.Fatalf("N = %d", l.N())
	}
	if mode := l.Mode(); mode < 50 || mode > 200 {
		t.Fatalf("mode = %v, want ~100", mode)
	}
	// Non-positive values must not panic and land in the lowest bin.
	l.Add(0)
	l.Add(-3)
	if l.N() != 102 {
		t.Fatalf("N after clamped adds = %d", l.N())
	}
}

func TestHist2D(t *testing.T) {
	h := NewHist2D(1, 1000, 1, 1000, 30, 30)
	// Mass exactly on the diagonal.
	for i := 0; i < 100; i++ {
		h.Add(50, 50)
	}
	if f := h.FracOnDiagonal(0); f != 1 {
		t.Fatalf("diagonal fraction = %v, want 1", f)
	}
	// Off-diagonal mass: max >> min.
	for i := 0; i < 100; i++ {
		h.Add(10, 900)
	}
	if f := h.FracOnDiagonal(1); f >= 1 {
		t.Fatalf("diagonal fraction should drop, got %v", f)
	}
	if h.N() != 200 {
		t.Fatalf("N = %d", h.N())
	}
	if out := h.RenderASCII(); len(out) == 0 {
		t.Fatal("empty render")
	}
}

func TestSparkline(t *testing.T) {
	out := SparklinePDF([]float64{0, 1, 2, 3})
	if out == "" {
		t.Fatal("empty sparkline")
	}
	if SparklinePDF([]float64{0, 0}) == "" {
		t.Fatal("empty sparkline for zero pdf")
	}
}

func TestTable(t *testing.T) {
	tb := NewTable("name", "value")
	tb.AddRow("alpha", "1")
	tb.AddRow("b")
	out := tb.String()
	if out == "" {
		t.Fatal("empty table")
	}
	if len(out) < 20 {
		t.Fatalf("table too short: %q", out)
	}
}

func TestFormatFloat(t *testing.T) {
	cases := map[float64]string{
		123.456: "123",
		12.345:  "12.3",
		1.234:   "1.23",
	}
	for in, want := range cases {
		if got := FormatFloat(in); got != want {
			t.Fatalf("FormatFloat(%v) = %q, want %q", in, got, want)
		}
	}
}
