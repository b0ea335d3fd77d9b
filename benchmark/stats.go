package main

import (
	"math"
	"sort"
)

// quantile returns the q-quantile (0 <= q <= 1) of an ascending slice by
// linear interpolation between the two nearest order statistics; the
// median of an even-length slice is the mean of its middle pair.
func quantile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return math.NaN()
	}
	pos := q * float64(n-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return sorted[lo] + (pos-float64(lo))*(sorted[hi]-sorted[lo])
}

// summary is how every timing is reported: the median, the 90th
// percentile and the number of samples behind them.
type summary struct {
	Median float64
	P90    float64
	N      int
}

func summarize(v []float64) summary {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return summary{Median: quantile(s, 0.5), P90: quantile(s, 0.9), N: len(s)}
}

func pct(v []float64, q float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return quantile(s, q)
}

func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	var t float64
	for _, x := range v {
		t += x
	}
	return t / float64(len(v))
}
