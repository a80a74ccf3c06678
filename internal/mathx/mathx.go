// Package mathx provides small numeric helpers shared across the simulator
// and the analytical model: compensated summation, statistics over share
// vectors, and simplex utilities used by bandwidth-partitioning schemes.
package mathx

import (
	"errors"
	"math"
)

// ErrEmpty is returned by reductions over empty slices where no neutral
// element exists (e.g. Mean, RSD).
var ErrEmpty = errors.New("mathx: empty input")

// Sum returns the Kahan-compensated sum of xs. For the short vectors used in
// partitioning math the compensation is overkill, but it makes long
// accumulations (per-cycle counters folded into floats) safe too.
func Sum(xs []float64) float64 {
	var sum, c float64
	for _, x := range xs {
		y := x - c
		t := sum + y
		c = (t - sum) - y
		sum = t
	}
	return sum
}

// Mean returns the arithmetic mean of xs, or an error for empty input.
func Mean(xs []float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	return Sum(xs) / float64(len(xs)), nil
}

// SampleStdDev returns the sample (n-1 denominator) standard deviation.
// At least two elements are required.
func SampleStdDev(xs []float64) (float64, error) {
	if len(xs) < 2 {
		return 0, errors.New("mathx: sample stddev needs at least two values")
	}
	mean, err := Mean(xs)
	if err != nil {
		return 0, err
	}
	var ss float64
	for _, x := range xs {
		d := x - mean
		ss += d * d
	}
	return math.Sqrt(ss / float64(len(xs)-1)), nil
}

// RSD returns the relative standard deviation of xs in percent
// (100 * sample stddev / mean). The paper uses the RSD of APC_alone values
// as the heterogeneity measure for workload construction (Table IV);
// matching its published numbers requires the sample (n-1) deviation.
func RSD(xs []float64) (float64, error) {
	mean, err := Mean(xs)
	if err != nil {
		return 0, err
	}
	if mean == 0 {
		return 0, errors.New("mathx: RSD undefined for zero mean")
	}
	sd, err := SampleStdDev(xs)
	if err != nil {
		return 0, err
	}
	return 100 * sd / mean, nil
}

// Normalize scales xs so its elements sum to 1 and returns the result as a
// fresh slice. It returns an error when the sum is not positive, because a
// share vector with zero or negative mass cannot be normalized onto the
// simplex.
func Normalize(xs []float64) ([]float64, error) {
	total := Sum(xs)
	if total <= 0 {
		return nil, errors.New("mathx: cannot normalize non-positive total")
	}
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x / total
	}
	return out, nil
}

// AllPositive reports whether every element of xs is strictly positive and
// finite.
func AllPositive(xs []float64) bool {
	for _, x := range xs {
		if !(x > 0) || math.IsInf(x, 0) {
			return false
		}
	}
	return len(xs) > 0
}

// Clamp limits x to the closed interval [lo, hi].
func Clamp(x, lo, hi float64) float64 {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}

// MeanStd returns the mean and sample standard deviation of xs (std 0 for
// a single element).
func MeanStd(xs []float64) (mean, std float64, err error) {
	mean, err = Mean(xs)
	if err != nil {
		return 0, 0, err
	}
	if len(xs) < 2 {
		return mean, 0, nil
	}
	std, err = SampleStdDev(xs)
	return mean, std, err
}
