package main

import (
	"fmt"
	"math"
	"sort"
)

// minBeyond is how many samples must lie beyond a reported percentile:
// p95 therefore needs 200 samples and p99 needs 1000.
const minBeyond = 10

// tailPercentiles are the percentiles the benchmark reports, highest first.
var tailPercentiles = []float64{99, 95, 90}

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

// quantile returns the q-quantile (0..1) of an ascending slice by linear
// interpolation between the two nearest ranks.
func quantile(asc []float64, q float64) float64 {
	if len(asc) == 0 {
		return math.NaN()
	}
	pos := q * float64(len(asc)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return asc[lo] + (asc[hi]-asc[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(sorted(xs), 0.5) }

func mean(xs []float64) float64 {
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// percentile returns the p-th percentile (0..100) of xs, refusing when
// fewer than minBeyond samples lie beyond it: a tail estimated from a
// handful of points is noise, not a measurement.
func percentile(xs []float64, p float64) (float64, error) {
	beyond := float64(len(xs)) * (100 - p) / 100
	if beyond < minBeyond {
		return 0, fmt.Errorf("p%g needs %d samples, have %d", p, int(math.Ceil(minBeyond*100/(100-p))), len(xs))
	}
	return quantile(sorted(xs), p/100), nil
}

// highestPercentile picks the highest reportable tail percentile for n
// samples, or 0 when even the lowest has too few samples beyond it.
func highestPercentile(n int) float64 {
	for _, p := range tailPercentiles {
		if float64(n)*(100-p)/100 >= minBeyond {
			return p
		}
	}
	return 0
}

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(values, n=4) does (the exclusive method), which is
// the rule the acceptance driver applies to the benchmark's spread.
func quartiles(xs []float64) (q1, q3 float64) {
	asc := sorted(xs)
	ld := len(asc)
	if ld < 2 {
		return math.NaN(), math.NaN()
	}
	cut := func(i int) float64 {
		const n = 4
		m := ld + 1
		j := i * m / n
		if j < 1 {
			j = 1
		}
		if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*n
		return (asc[j-1]*float64(n-delta) + asc[j]*float64(delta)) / n
	}
	return cut(1), cut(3)
}

// spread is the interquartile distance as a share of the median.
func spread(xs []float64) float64 {
	q1, q3 := quartiles(xs)
	return (q3 - q1) / median(xs)
}

// rangeShare is (max − min) ÷ median, the calibration rule's statistic.
func rangeShare(xs []float64) float64 {
	asc := sorted(xs)
	return (asc[len(asc)-1] - asc[0]) / median(xs)
}

// worsening is the share of base by which cand is worse, given the
// metric's direction; zero or negative means no worse.
func worsening(better string, base, cand float64) float64 {
	if better == "higher" {
		return (base - cand) / base
	}
	return (cand - base) / base
}

// withinBound reports whether cand is no worse than base by more than the
// metric's bound (or, where the metric has one, its absolute slack).
func withinBound(m metricDef, base, cand float64) bool {
	return worsening(m.Better, base, cand) <= max(m.Bound, m.Slack/base)
}
