package main

import (
	"math"
	"sort"
)

// minTailSamples is the sample count below which a p99 is not a p99: with
// fewer than 1000 samples, fewer than 10 lie beyond it.
const minTailSamples = 1000

// sortedCopy returns v sorted ascending without disturbing v.
func sortedCopy(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

// percentile is the nearest-rank p-quantile (0 < p <= 1) of an ascending
// slice; 0 for an empty one.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(p*float64(len(sorted)))) - 1
	return sorted[min(max(i, 0), len(sorted)-1)]
}

func median(v []float64) float64 { return percentile(sortedCopy(v), 0.5) }

// quartiles reproduces Python's statistics.quantiles(v, n=4) (the default
// "exclusive" method), which is how the spread of repeated runs is judged.
func quartiles(v []float64) (q1, q2, q3 float64) {
	s := sortedCopy(v)
	m := len(s)
	if m < 2 {
		if m == 1 {
			return s[0], s[0], s[0]
		}
		return 0, 0, 0
	}
	cut := func(i int) float64 {
		j := i * (m + 1) / 4
		delta := float64(i*(m+1) - j*4)
		j = min(max(j, 1), m-1)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

// spread is the interquartile distance as a share of the median.
func spread(v []float64) float64 {
	q1, q2, q3 := quartiles(v)
	if q2 == 0 {
		return 0
	}
	return (q3 - q1) / math.Abs(q2)
}

func sum(v []float64) float64 {
	t := 0.0
	for _, x := range v {
		t += x
	}
	return t
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
