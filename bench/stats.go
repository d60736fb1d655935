package main

import (
	"math"
	"sort"
)

// summary is one metric's samples from one run, reduced for the report.
type summary struct {
	Median  float64   `json:"median"`
	Q1      float64   `json:"q1"`
	Q3      float64   `json:"q3"`
	MAD     float64   `json:"mad"`
	N       int       `json:"n"`
	Samples []float64 `json:"samples"`
}

func summarize(xs []float64) summary {
	q1, q3 := quartiles(xs)
	return summary{Median: median(xs), Q1: q1, Q3: q3, MAD: mad(xs), N: len(xs), Samples: xs}
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median returns the middle value (the mean of the two middle values for
// an even count); 0 for no samples.
func median(xs []float64) float64 {
	s := sortedCopy(xs)
	n := len(s)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartiles by the rule of Python's
// statistics.quantiles(xs, n=4) (its default "exclusive" method), so the
// spreads printed here match an external check of the same samples.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sortedCopy(xs)
	n := len(s)
	switch n {
	case 0:
		return 0, 0
	case 1:
		return s[0], s[0]
	}
	cut := func(i int) float64 {
		m := n + 1
		j := min(max(i*m/4, 1), n-1)
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(3)
}

// mad is the median absolute deviation from the median.
func mad(xs []float64) float64 {
	m := median(xs)
	dev := make([]float64, len(xs))
	for i, x := range xs {
		dev[i] = math.Abs(x - m)
	}
	return median(dev)
}

// Verdicts of judge.
const (
	better     = "better"
	worse      = "worse"
	unchanged  = "unchanged"
	unresolved = "unresolved"
)

// judge compares run b of a metric against run a. An exact metric is
// unchanged only when both medians are identical; any difference is worse.
// Otherwise the tolerance is the metric's relative bound of a's median,
// but never below its absolute floor. When either run's interquartile
// spread is wider than that tolerance the pair is unresolved, unless every
// sample of b beats every sample of a.
func judge(d metricDef, a, b summary) string {
	if d.Better == exact {
		if a.Median == b.Median {
			return unchanged
		}
		return worse
	}
	tol := math.Max(d.Bound*math.Abs(a.Median), d.Floor)
	if a.Q3-a.Q1 > tol || b.Q3-b.Q1 > tol {
		if allBetter(d, a.Samples, b.Samples) {
			return better
		}
		return unresolved
	}
	delta := b.Median - a.Median // > 0 means worse for a lower-is-better metric
	if d.Better == higher {
		delta = -delta
	}
	switch {
	case delta > tol:
		return worse
	case delta < -tol:
		return better
	}
	return unchanged
}

// allBetter reports whether every sample of b beats every sample of a.
func allBetter(d metricDef, a, b []float64) bool {
	if len(a) == 0 || len(b) == 0 {
		return false
	}
	sa, sb := sortedCopy(a), sortedCopy(b)
	if d.Better == higher {
		return sb[0] > sa[len(sa)-1]
	}
	return sb[len(sb)-1] < sa[0]
}
