package main

import (
	"math"
	"sort"
)

func sorted(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

// quantile interpolates like Python's statistics.quantiles (exclusive
// method): position p·(n+1) on the 1-based sorted sample.
func quantile(sortedXs []float64, p float64) float64 {
	n := len(sortedXs)
	if n == 0 {
		return 0
	}
	pos := p*float64(n+1) - 1
	if pos <= 0 {
		return sortedXs[0]
	}
	if pos >= float64(n-1) {
		return sortedXs[n-1]
	}
	lo := int(pos)
	return sortedXs[lo] + (pos-float64(lo))*(sortedXs[lo+1]-sortedXs[lo])
}

func median(xs []float64) float64 { return quantile(sorted(xs), 0.5) }

// spreadShare is the interquartile range as a share of the median.
func spreadShare(xs []float64) float64 {
	s := sorted(xs)
	m := quantile(s, 0.5)
	if m == 0 {
		return 0
	}
	return (quantile(s, 0.75) - quantile(s, 0.25)) / m
}

// tail returns the highest percentile with at least ten samples beyond it
// and its value; ok is false below twenty samples.
func tail(sortedXs []float64) (pct, value float64, ok bool) {
	n := len(sortedXs)
	if n < 20 {
		return 0, 0, false
	}
	return 100 * float64(n-10) / float64(n), sortedXs[n-11], true
}

// geomean ignores non-positive entries (a kind without a correct sample).
func geomean(xs []float64) float64 {
	sum, n := 0.0, 0
	for _, x := range xs {
		if x > 0 {
			sum += math.Log(x)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return math.Exp(sum / float64(n))
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}
