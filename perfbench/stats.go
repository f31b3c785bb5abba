package main

import (
	"fmt"
	"math"
	"sort"
)

// minBeyond is how many samples must lie beyond a reported percentile: a
// percentile with fewer samples past it is set by a handful of outliers.
const minBeyond = 10

// percentile returns the nearest-rank q-quantile (0 < q < 1) of xs. It
// refuses when fewer than minBeyond samples lie beyond that rank.
func percentile(xs []float64, q float64) (float64, error) {
	n := len(xs)
	rank := int(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if n-rank < minBeyond {
		return 0, fmt.Errorf("p%g of %d samples has %d beyond it, want >= %d", 100*q, n, n-rank, minBeyond)
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rank-1], nil
}

// supported returns the largest quantile no higher than q that percentile
// accepts for n samples, or 0 when n is too small for any.
func supported(n int, q float64) float64 {
	if n <= minBeyond {
		return 0
	}
	return math.Min(q, float64(n-minBeyond)/float64(n))
}

// capped returns the q-quantile of xs, or the highest quantile the sample
// count supports when q needs more samples, but never less than the median;
// used is the quantile taken (0.5 for the median).
func capped(xs []float64, q float64) (v, used float64) {
	used = supported(len(xs), q)
	if used < 0.5 {
		return median(xs), 0.5
	}
	v, err := percentile(xs, used)
	if err != nil { // unreachable: used is supported by construction
		panic(err)
	}
	return v, used
}

// tailPercentile is capped with a note of the quantile taken and the sample
// count.
func tailPercentile(name string, xs []float64, q float64) float64 {
	v, used := capped(xs, q)
	note("%s: p%.4g of %d samples", name, 100*used, len(xs))
	return v
}

// median returns the middle value of xs (mean of the two middle values for
// an even count), or 0 for no samples.
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

// ms converts seconds to milliseconds.
func ms(s []float64) []float64 {
	out := make([]float64, len(s))
	for i, v := range s {
		out[i] = 1000 * v
	}
	return out
}
