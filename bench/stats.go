package main

import (
	"math"
	"sort"
)

// dist is a sorted sample of one measured quantity.
type dist []float64

func newDist(xs []float64) dist {
	d := append(dist(nil), xs...)
	sort.Float64s(d)
	return d
}

// rank is the 1-based nearest-rank position of the q-quantile in n samples.
// The epsilon absorbs float error in q·n (0.9·100 must rank 90, not 91).
func rank(q float64, n int) int {
	r := int(math.Ceil(q*float64(n) - 1e-9))
	return min(max(r, 1), n)
}

// quantile returns the nearest-rank q-quantile, NaN for an empty sample.
func (d dist) quantile(q float64) float64 {
	if len(d) == 0 {
		return math.NaN()
	}
	return d[rank(q, len(d))-1]
}

// supports reports whether at least ten samples lie beyond the q-quantile:
// the highest percentile worth reporting is the highest one this holds for.
func (d dist) supports(q float64) bool {
	return len(d) > 0 && len(d)-rank(q, len(d)) >= 10
}

// quartiles returns Q1, the median and Q3 as Python's
// statistics.quantiles(xs, n=4) computes them (the default exclusive
// method), so spreads printed here match the ones the benchmark is judged
// by. A single sample is its own quartiles.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	d := newDist(xs)
	n := len(d)
	switch n {
	case 0:
		return math.NaN(), math.NaN(), math.NaN()
	case 1:
		return d[0], d[0], d[0]
	}
	m := n + 1
	cut := func(i int) float64 {
		j := min(max(i*m/4, 1), n-1)
		delta := float64(i*m - j*4)
		return (d[j-1]*(4-delta) + d[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

// median is the middle quartile.
func median(xs []float64) float64 {
	_, q2, _ := quartiles(xs)
	return q2
}

// worse is how much worse b is than a as a share of a, for a metric whose
// better direction is "lower" or "higher". Negative means b is better.
func worse(a, b float64, better string) float64 {
	if better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

// Verdicts of a bound comparison.
const (
	verdictPass       = "PASS"
	verdictRegression = "REGRESSION"
	verdictUnresolved = "UNRESOLVED"
)

// judge compares a change's runs (b) against the parent's (a) under a
// bound: a median more than bound worse is a regression, unless the runs'
// own spread (interquartile range over median, on either side) exceeds the
// bound — then the difference cannot be told from noise and the verdict is
// unresolved, except when every run of the change beats every run of the
// parent.
func judge(a, b []float64, better string, bound float64) string {
	if len(a) == 0 || len(b) == 0 {
		return verdictUnresolved
	}
	if spread(a) > bound || spread(b) > bound {
		if allBetter(a, b, better) {
			return verdictPass
		}
		return verdictUnresolved
	}
	if worse(median(a), median(b), better) > bound {
		return verdictRegression
	}
	return verdictPass
}

// spread is the interquartile range as a share of the median.
func spread(xs []float64) float64 {
	q1, q2, q3 := quartiles(xs)
	if q2 == 0 {
		if q1 == q3 {
			return 0
		}
		return math.Inf(1)
	}
	return (q3 - q1) / math.Abs(q2)
}

// allBetter reports whether every value in b is strictly better than every
// value in a.
func allBetter(a, b []float64, better string) bool {
	da, db := newDist(a), newDist(b)
	if better == "higher" {
		return db[0] > da[len(da)-1]
	}
	return db[len(db)-1] < da[0]
}
