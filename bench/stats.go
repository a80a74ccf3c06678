package main

import (
	"math"
	"sort"
)

// median returns the middle value (mean of the two middle values for an even
// count). It does not modify vs.
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns Q1, median, Q3 with the same exclusive method as
// Python's statistics.quantiles(vs, n=4), so the spread computed here matches
// what the benchmark's acceptance rule computes. A single value is returned
// three times; vs must not be empty.
func quartiles(vs []float64) [3]float64 {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	n := len(s)
	if n == 1 {
		return [3]float64{s[0], s[0], s[0]}
	}
	var q [3]float64
	for i := 1; i <= 3; i++ {
		j := max(1, min(i*(n+1)/4, n-1))
		delta := i*(n+1) - j*4
		q[i-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q
}

// minPercentileSamples and minBeyond are the conditions under which a tail
// percentile is meaningful: enough samples in the round, and enough of them
// beyond the reported point.
const (
	minPercentileSamples = 200
	minBeyond            = 10
)

// percentileSupported reports whether n samples support the p-th percentile
// (0 < p < 1) under the rule above.
func percentileSupported(n int, p float64) bool {
	return n >= minPercentileSamples && float64(n)*(1-p) >= minBeyond
}

// percentileNS returns the p-th percentile (nearest rank) of sorted
// nanosecond samples, in nanoseconds.
func percentileNS(sorted []int64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	rank := int(math.Ceil(p*float64(len(sorted)))) - 1
	rank = max(0, min(rank, len(sorted)-1))
	return float64(sorted[rank])
}

// sortedCopy returns an ascending copy of ns.
func sortedCopy(ns []int64) []int64 {
	s := append([]int64(nil), ns...)
	sort.Slice(s, func(a, b int) bool { return s[a] < s[b] })
	return s
}
