package main

import (
	"math"
	"sort"
)

// median returns the middle of xs (mean of the two middles for an
// even count); 0 for an empty slice. xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// quartiles returns the first and third quartile of xs by the
// exclusive method, the one Python's statistics.quantiles(xs, n=4)
// uses, so spreads computed here match the ones the driver computes.
func quartiles(xs []float64) (q1, q3 float64) {
	n := len(xs)
	if n < 2 {
		if n == 1 {
			return xs[0], xs[0]
		}
		return 0, 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	at := func(k int) float64 { // k-th of 4 cut points
		j := k * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := k*(n+1) - 4*j // after the clamp, as Python does: may extrapolate
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(3)
}

// spread is the interquartile distance as a share of the median.
func spread(xs []float64) float64 {
	m := median(xs)
	if m == 0 {
		return 0
	}
	q1, q3 := quartiles(xs)
	return math.Abs((q3 - q1) / m)
}

// percentile returns the nearest-rank p-th percentile (0 < p <= 100)
// of an ascending slice.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1]
}

// tailLadder lists the percentiles a latency report may quote, in
// rising order.
var tailLadder = []float64{50, 90, 95, 99, 99.9}

// tailPercentile picks the highest percentile of tailLadder, capped
// at limit, that still has at least ten samples beyond it in a sample
// of n: the rule the choosing-metrics guide sets for a tail figure. A
// sample too small for any rung falls back to the median.
func tailPercentile(n int, limit float64) float64 {
	best := tailLadder[0]
	for _, p := range tailLadder {
		beyond := n - int(math.Ceil(p/100*float64(n)))
		if p <= limit && beyond >= 10 {
			best = p
		}
	}
	return best
}
