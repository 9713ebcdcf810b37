package main

import (
	"math"
	"sort"
)

// minBeyond is the percentile rule: a percentile is reported only when
// at least this many samples lie above it, so p90 needs 100 samples and
// p99 needs 1000.
const minBeyond = 10

// percentile returns the nearest-rank p-quantile (0 < p < 1) of sorted
// samples and whether at least minBeyond samples lie beyond it.
func percentile(sorted []float64, p float64) (v float64, ok bool) {
	n := len(sorted)
	if n == 0 {
		return 0, false
	}
	// The epsilon keeps p·n from rounding up past an exact integer
	// (0.99·1000 must select rank 990, not 991).
	k := int(math.Ceil(p*float64(n)-1e-9)) - 1
	k = max(0, min(k, n-1))
	return sorted[k], n-1-k >= minBeyond
}

// tail returns the highest of p90, p99 and p99.9 that the percentile
// rule allows, with its name ("p90", ...); ok is false when even p90 has
// fewer than minBeyond samples beyond it.
func tail(sorted []float64) (name string, v float64, ok bool) {
	for _, t := range []struct {
		name string
		p    float64
	}{{"p999", 0.999}, {"p99", 0.99}, {"p90", 0.90}} {
		if v, ok := percentile(sorted, t.p); ok {
			return t.name, v, true
		}
	}
	return "", 0, false
}

// sorted returns a sorted copy of xs.
func sorted(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

// median is the middle value of xs, or the mean of the two middle
// values (Python's statistics.median).
func median(xs []float64) float64 {
	s := sorted(xs)
	n := len(s)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	default:
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// quartiles returns the first and third quartiles of xs by the method
// Python's statistics.quantiles(xs, n=4) uses by default ("exclusive"),
// so spreads printed here match the ones computed from the same values
// in Python. With fewer than two values both quartiles are the value.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sorted(xs)
	n := len(s)
	if n == 0 {
		return 0, 0
	}
	if n == 1 {
		return s[0], s[0]
	}
	q := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		j = max(1, min(j, n-1))
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(3)
}

// spread is the interquartile distance of xs as a share of its median.
func spread(xs []float64) float64 {
	med := median(xs)
	if med == 0 {
		return 0
	}
	q1, q3 := quartiles(xs)
	return (q3 - q1) / math.Abs(med)
}
