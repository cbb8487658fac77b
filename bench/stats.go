package main

import (
	"math"
	"slices"
)

// rankOf is the 1-based nearest rank of the q-quantile among n samples:
// the smallest r with r ≥ q·n, clamped to [1, n]. It is the same rule
// load.Hist.Quantile applies, so host and modelled percentiles agree on
// what "p99.9 of N" means.
func rankOf(q float64, n int) int {
	r := int(math.Ceil(q * float64(n)))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// percentiles returns the nearest-rank quantiles qs of xs. xs is sorted
// in place; an empty xs yields zeros.
func percentiles(xs []float64, qs ...float64) []float64 {
	out := make([]float64, len(qs))
	if len(xs) == 0 {
		return out
	}
	slices.Sort(xs)
	for i, q := range qs {
		out[i] = xs[rankOf(q, len(xs))-1]
	}
	return out
}

// median is the middle value of xs (the mean of the two middle values
// for an even count). xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
