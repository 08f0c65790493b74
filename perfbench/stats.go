package main

import (
	"math"
	"sort"
)

// median returns the middle value of xs (the mean of the two middle values
// for an even count), or 0 for an empty slice. xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile returns the nearest-rank p-th percentile of xs (0 < p <= 100).
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return sorted(xs)[nearestRank(len(xs), p)-1]
}

// nearestRank is the 1-based rank of the p-th percentile of n samples.
func nearestRank(n int, p float64) int {
	rank := int(math.Ceil(p*float64(n)/100 - 1e-9)) // guard against p*n/100 rounding up
	return max(rank, 1)
}

// tailLadder lists the percentiles a tail may be reported at, highest
// first. It stops at 95: on a shared host a p99 of a few thousand compile
// samples swung by up to 48% between runs (bursts of host stalls hit the
// dozen samples beyond it), and a ladder rung that depends on the sample
// count would let host speed pick the percentile.
var tailLadder = []float64{95, 90, 50}

// tailPercentile returns the highest ladder percentile with at least ten of
// n samples beyond it.
func tailPercentile(n int) float64 {
	for _, p := range tailLadder {
		if n-nearestRank(n, p) >= 10 {
			return p
		}
	}
	return 50
}

// geomean returns the geometric mean of positive values (0 if empty).
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var logSum float64
	for _, x := range xs {
		logSum += math.Log(x)
	}
	return math.Exp(logSum / float64(len(xs)))
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
