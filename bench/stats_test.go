package main

import (
	"math"
	"testing"
)

func ramp(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	return xs
}

// TestPercentileRule checks the nearest-rank percentile and the rule
// that at least ten samples must lie beyond a reported percentile.
func TestPercentileRule(t *testing.T) {
	for _, tc := range []struct {
		n    int
		p    float64
		want float64
		ok   bool
	}{
		{100, 0.50, 50, true},
		{100, 0.90, 90, true},
		{99, 0.90, 90, false}, // 9 samples beyond
		{1000, 0.99, 990, true},
		{999, 0.99, 990, false}, // p99 refused below 1000 samples
		{20, 0.50, 10, true},
		{19, 0.50, 10, false},
		{1, 0.50, 1, false},
		{10000, 0.999, 9990, true},
	} {
		v, ok := percentile(ramp(tc.n), tc.p)
		if v != tc.want || ok != tc.ok {
			t.Errorf("percentile(1..%d, %v) = %v, %v; want %v, %v", tc.n, tc.p, v, ok, tc.want, tc.ok)
		}
	}
	if _, ok := percentile(nil, 0.5); ok {
		t.Error("percentile of no samples reported ok")
	}
}

func TestTailPicksHighestAllowedPercentile(t *testing.T) {
	for _, tc := range []struct {
		n    int
		name string
		ok   bool
	}{{99, "", false}, {100, "p90", true}, {999, "p90", true}, {1000, "p99", true}, {10000, "p999", true}} {
		name, _, ok := tail(ramp(tc.n))
		if name != tc.name || ok != tc.ok {
			t.Errorf("tail(%d samples) = %q, %v; want %q, %v", tc.n, name, ok, tc.name, tc.ok)
		}
	}
}

// TestQuartilesMatchPython pins quartiles to Python's
// statistics.quantiles(xs, n=4), the computation the benchmark's
// spreads are judged by.
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2}, 0.75, 2.25},
		{[]float64{3, 1, 2}, 1, 3},
		{[]float64{1, 2, 3, 4}, 1.25, 3.75},
		{[]float64{5, 1, 4, 2, 3}, 1.5, 4.5},
		{ramp(10), 2.75, 8.25},
	} {
		q1, q3 := quartiles(tc.xs)
		if math.Abs(q1-tc.q1) > 1e-12 || math.Abs(q3-tc.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", tc.xs, q1, q3, tc.q1, tc.q3)
		}
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
	if got := spread(ramp(10)); math.Abs(got-5.5/5.5) > 1e-12 {
		t.Errorf("spread(1..10) = %v, want 1", got)
	}
}
