package main

import (
	"fmt"
	"math"
	"sort"
)

// minTail is how many samples must rank beyond a percentile before
// it is reported: a p99 read off fewer than ten tail samples is one or two
// outliers, not a percentile.
const minTail = 10

// percentile returns the nearest-rank q-quantile of sorted and whether at
// least minTail samples rank beyond it.
func percentile(sorted []float64, q float64) (float64, bool) {
	n := len(sorted)
	if n == 0 || q < 0 || q > 1 {
		return 0, false
	}
	rank := int(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1], n-rank >= minTail
}

// mustPercentile is percentile for metrics the benchmark reports: too thin a
// tail is an error, never a silently dropped number.
func mustPercentile(sorted []float64, q float64, what string) (float64, error) {
	v, ok := percentile(sorted, q)
	if !ok {
		return 0, fmt.Errorf("%s: p%g has fewer than %d of %d samples beyond it", what, q*100, minTail, len(sorted))
	}
	return v, nil
}

// median returns the middle of xs (mean of the two middles for even n); xs
// is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// ratio divides, reading 0/0 as 0 so that a layer with no samples prints 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
