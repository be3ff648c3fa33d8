package main

import "sort"

// quartiles returns the first quartile, the median and the third
// quartile of xs by the exclusive method of Python's
// statistics.quantiles(xs, n=4), so the spreads printed here are the
// ones a reader recomputes from the per-run values in a result file.
func quartiles(xs []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	switch len(s) {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	return quantile(s, 1), quantile(s, 2), quantile(s, 3)
}

// quantile is the i-th of the three cut points of sorted s (len ≥ 2).
func quantile(s []float64, i int) float64 {
	const n = 4
	m := len(s) + 1
	j := i * m / n
	if j < 1 {
		j = 1
	}
	if j > len(s)-1 {
		j = len(s) - 1
	}
	delta := float64(i*m - j*n)
	return (s[j-1]*(n-delta) + s[j]*delta) / n
}

// median is the middle cut point of xs.
func median(xs []float64) float64 {
	_, m, _ := quartiles(xs)
	return m
}

// percentile returns the p-th percentile (0..100) of xs by nearest rank.
func percentile(xs []int64, p float64) int64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]int64(nil), xs...)
	sort.Slice(s, func(a, b int) bool { return s[a] < s[b] })
	k := int(p/100*float64(len(s))+0.5) - 1
	if k < 0 {
		k = 0
	}
	if k >= len(s) {
		k = len(s) - 1
	}
	return s[k]
}
