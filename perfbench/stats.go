package main

import (
	"math"
	"sort"
)

// quartiles returns the first quartile, median and third quartile of xs
// by the same rule as Python's statistics.quantiles(xs, n=4) (the
// "exclusive" method), so a spread computed here matches one computed
// over the printed results. xs need not be sorted; it is not modified.
// A single sample is its own quartiles.
func quartiles(xs []float64) (q1, med, q3 float64) {
	if len(xs) == 0 {
		return 0, 0, 0
	}
	if len(xs) == 1 {
		return xs[0], xs[0], xs[0]
	}
	d := sortedCopy(xs)
	n := len(d)
	m := n + 1
	q := [3]float64{}
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*m - j*4)
		q[i-1] = (d[j-1]*(4-delta) + d[j]*delta) / 4
	}
	return q[0], median(d), q[2]
}

// median is the middle sample, or the mean of the two middle samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	d := sortedCopy(xs)
	n := len(d)
	if n%2 == 1 {
		return d[n/2]
	}
	return (d[n/2-1] + d[n/2]) / 2
}

// tailPct is the highest whole percentile, at most 99, that has at least
// ten of n samples beyond it; it never falls below the median (50),
// which is what a run too short for a tail reports.
func tailPct(n int) int {
	if n <= 0 {
		return 50
	}
	p := int(math.Floor(100 - 1000/float64(n)))
	if p > 99 {
		p = 99
	}
	if p < 50 {
		p = 50
	}
	return p
}

// percentile is the nearest-rank p-th percentile of xs: the smallest
// sample with at least p% of the samples at or below it.
func percentile(xs []float64, p int) float64 {
	if len(xs) == 0 {
		return 0
	}
	d := sortedCopy(xs)
	i := int(math.Ceil(float64(p)/100*float64(len(d)))) - 1
	if i < 0 {
		i = 0
	}
	return d[i]
}

func sortedCopy(xs []float64) []float64 {
	d := append([]float64(nil), xs...)
	sort.Float64s(d)
	return d
}
