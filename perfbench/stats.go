package main

import (
	"math"
	"sort"
)

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (0 for an empty slice). xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(s)-1)
	if math.IsInf(s[hi], 1) {
		return s[hi]
	}
	return s[lo] + (pos-float64(lo))*(s[hi]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// tailQuantile is the highest quantile, at most p99, with at least ten
// samples beyond it among n.
func tailQuantile(n int) float64 {
	if n <= 10 {
		return 0.5
	}
	return math.Max(0.5, math.Min(0.99, 1-10/float64(n)))
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// geomean is the geometric mean of positive values: each value's
// relative change moves it by the same share.
func geomean(xs ...float64) float64 {
	var s float64
	for _, x := range xs {
		s += math.Log(x)
	}
	return math.Exp(s / float64(len(xs)))
}
