package main

import "unison/internal/stats"

// minTail is the fewest samples a reported percentile must have beyond
// it; a higher percentile would rest on a handful of outliers.
const minTail = 10

// pct is a percentile together with the sample count it was taken over.
type pct struct {
	Value float64
	N     int
}

// quantile returns the q-quantile of xs (stats.Quantile: linear
// interpolation between closest ranks) with the sample count. An empty
// input gives NaN.
func quantile(xs []float64, q float64) pct {
	return pct{Value: stats.Quantile(xs, q), N: len(xs)}
}

// tailOK reports whether the q-quantile of n samples has at least minTail
// samples beyond it.
func tailOK(n int, q float64) bool {
	return float64(n)*(1-q) >= minTail
}

func median(xs []float64) float64 { return quantile(xs, 0.5).Value }
