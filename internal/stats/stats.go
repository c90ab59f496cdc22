// Package stats provides the descriptive statistics used throughout the
// reproduction: streaming mean/variance, sample quantiles, linear and
// logarithmic histograms (for the PDF plots of Figure 1),
// two-dimensional histograms (Figure 1b), and five-number boxplot
// summaries (Figure 5).
package stats

import (
	"math"
	"sort"
)

// Welford accumulates a streaming mean and variance using Welford's
// online algorithm. The zero value is ready to use.
type Welford struct {
	n    int
	mean float64
	m2   float64
	min  float64
	max  float64
}

// Add incorporates one observation.
func (w *Welford) Add(x float64) {
	w.n++
	if w.n == 1 {
		w.min, w.max = x, x
	} else {
		if x < w.min {
			w.min = x
		}
		if x > w.max {
			w.max = x
		}
	}
	d := x - w.mean
	w.mean += d / float64(w.n)
	w.m2 += d * (x - w.mean)
}

// N returns the number of observations.
func (w *Welford) N() int { return w.n }

// Reset clears the accumulator for reuse.
func (w *Welford) Reset() { *w = Welford{} }

// Mean returns the sample mean (0 if empty).
func (w *Welford) Mean() float64 { return w.mean }

// Var returns the unbiased sample variance (0 if fewer than two
// observations).
func (w *Welford) Var() float64 {
	if w.n < 2 {
		return 0
	}
	return w.m2 / float64(w.n-1)
}

// Std returns the sample standard deviation.
func (w *Welford) Std() float64 { return math.Sqrt(w.Var()) }

// Min returns the smallest observation (0 if empty).
func (w *Welford) Min() float64 { return w.min }

// Max returns the largest observation (0 if empty).
func (w *Welford) Max() float64 { return w.max }

// Sample collects raw observations for quantile queries. The zero value
// is ready to use.
type Sample struct {
	xs     []float64
	sorted bool
}

// Add appends one observation.
func (s *Sample) Add(x float64) {
	s.xs = append(s.xs, x)
	s.sorted = false
}

// N returns the number of observations.
func (s *Sample) N() int { return len(s.xs) }

// Reset drops all observations but keeps the backing array, so a
// scratch-pooled sample refills without reallocating.
func (s *Sample) Reset() {
	s.xs = s.xs[:0]
	s.sorted = false
}

// Values returns the observations in sorted order. The returned slice
// is owned by the Sample; callers must not modify it.
func (s *Sample) Values() []float64 {
	s.sort()
	return s.xs
}

func (s *Sample) sort() {
	if !s.sorted {
		sort.Float64s(s.xs)
		s.sorted = true
	}
}

// Quantile returns the q-th sample quantile (0 <= q <= 1) using linear
// interpolation between order statistics. It returns 0 for an empty
// sample.
func (s *Sample) Quantile(q float64) float64 {
	if len(s.xs) == 0 {
		return 0
	}
	s.sort()
	if q <= 0 {
		return s.xs[0]
	}
	if q >= 1 {
		return s.xs[len(s.xs)-1]
	}
	pos := q * float64(len(s.xs)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return s.xs[lo]
	}
	frac := pos - float64(lo)
	return s.xs[lo]*(1-frac) + s.xs[hi]*frac
}

// Median returns the 50th percentile.
func (s *Sample) Median() float64 { return s.Quantile(0.5) }

// Mean returns the sample mean.
func (s *Sample) Mean() float64 {
	if len(s.xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range s.xs {
		sum += x
	}
	return sum / float64(len(s.xs))
}

// Std returns the sample standard deviation.
func (s *Sample) Std() float64 {
	n := len(s.xs)
	if n < 2 {
		return 0
	}
	m := s.Mean()
	sum := 0.0
	for _, x := range s.xs {
		d := x - m
		sum += d * d
	}
	return math.Sqrt(sum / float64(n-1))
}

// FracBelow reports the fraction of observations strictly less than x.
func (s *Sample) FracBelow(x float64) float64 {
	if len(s.xs) == 0 {
		return 0
	}
	s.sort()
	i := sort.SearchFloat64s(s.xs, x)
	return float64(i) / float64(len(s.xs))
}

// FracAbove reports the fraction of observations greater than x.
func (s *Sample) FracAbove(x float64) float64 {
	if len(s.xs) == 0 {
		return 0
	}
	s.sort()
	i := sort.SearchFloat64s(s.xs, math.Nextafter(x, math.Inf(1)))
	return float64(len(s.xs)-i) / float64(len(s.xs))
}

// Boxplot is a five-number summary with 1.5-IQR whiskers, matching the
// boxplots of Figure 5.
type Boxplot struct {
	Min, Q1, Median, Q3, Max float64
	WhiskerLo, WhiskerHi     float64
	N                        int
}

// BoxplotOf summarizes a sample.
func BoxplotOf(s *Sample) Boxplot {
	if s.N() == 0 {
		return Boxplot{}
	}
	b := Boxplot{
		Min:    s.Quantile(0),
		Q1:     s.Quantile(0.25),
		Median: s.Quantile(0.5),
		Q3:     s.Quantile(0.75),
		Max:    s.Quantile(1),
		N:      s.N(),
	}
	iqr := b.Q3 - b.Q1
	b.WhiskerLo = math.Max(b.Min, b.Q1-1.5*iqr)
	b.WhiskerHi = math.Min(b.Max, b.Q3+1.5*iqr)
	return b
}
