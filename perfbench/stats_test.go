package main

import (
	"math"
	"testing"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	return xs
}

func TestPercentileNearestRank(t *testing.T) {
	xs := seq(1000)
	for _, tc := range []struct {
		q    float64
		want float64
	}{{0.5, 500}, {0.99, 990}, {0.001, 1}, {0, 1}, {1, 1000}} {
		got, _ := percentile(xs, tc.q)
		if got != tc.want {
			t.Errorf("p%g = %g, want %g", tc.q*100, got, tc.want)
		}
	}
}

func TestPercentileNeedsTenBeyond(t *testing.T) {
	// p99 of 1000 samples has exactly 10 beyond it; of 999, only 9.
	if _, ok := percentile(seq(1000), 0.99); !ok {
		t.Error("p99 of 1000 samples: 10 beyond, want reported")
	}
	if _, ok := percentile(seq(999), 0.99); ok {
		t.Error("p99 of 999 samples: 9 beyond, want refused")
	}
	if _, err := mustPercentile(seq(999), 0.99, "x"); err == nil {
		t.Error("mustPercentile accepted a thin tail")
	}
	if _, ok := percentile(nil, 0.5); ok {
		t.Error("percentile of no samples reported")
	}
}

func TestPercentileCountsTiesByRank(t *testing.T) {
	// Acks come in frames, so latencies tie; the tail is counted by rank.
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i / 40)
	}
	v, ok := percentile(xs, 0.99)
	if v != 24 || !ok {
		t.Errorf("p99 over tied samples = %g, reported %v; want 24, reported", v, ok)
	}
}

func TestMedianAndRatio(t *testing.T) {
	xs := []float64{3, 1, 2}
	if m := median(xs); m != 2 {
		t.Errorf("median odd = %g", m)
	}
	if xs[0] != 3 {
		t.Error("median reordered its input")
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median even = %g", m)
	}
	if r := ratio(1, 0); r != 0 || math.IsNaN(r) {
		t.Errorf("ratio(1, 0) = %g, want 0", r)
	}
}
