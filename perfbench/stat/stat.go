// Package stat holds the order statistics the benchmark reports and
// the rule the comparator applies to two sets of runs.
package stat

import (
	"math"
	"sort"
)

// sorted returns a sorted copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// Percentile returns the nearest-rank p-th percentile of xs (0 < p <=
// 100): the smallest sample with at least p% of the samples at or
// below it. It returns 0 for an empty slice.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(s) {
		rank = len(s)
	}
	return s[rank-1]
}

// Median returns the middle value of xs (the mean of the two middle
// values for an even count), or 0 for an empty slice.
func Median(xs []float64) float64 {
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

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Quartiles returns the first and third quartiles of xs by the
// exclusive method, the default of Python's statistics.quantiles(xs,
// n=4). A single sample is its own quartiles.
func Quartiles(xs []float64) (q1, q3 float64) {
	s := sorted(xs)
	n := len(s)
	switch n {
	case 0:
		return 0, 0
	case 1:
		return s[0], s[0]
	}
	q := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(3)
}

// Spread is the interquartile distance of xs as a share of its median
// (0 when the median is 0).
func Spread(xs []float64) float64 {
	med := Median(xs)
	if med == 0 {
		return 0
	}
	q1, q3 := Quartiles(xs)
	return (q3 - q1) / math.Abs(med)
}

// Verdict is the comparator's finding for one workload × metric.
type Verdict string

const (
	Improved   Verdict = "improved"
	Unchanged  Verdict = "unchanged"
	Worse      Verdict = "worse"
	Unresolved Verdict = "unresolved"
)

// Compare judges change against parent, two sets of runs paired by
// index (run i of each side used the same seed). higherBetter gives
// the metric's direction and bound the share of the parent's median
// by which the change may be worse before it counts as a regression.
//
// The change improved when it wins at least nine tenths of the pairs
// (ties count for neither side) and the medians differ, in its favour,
// by more than the parent's interquartile distance. Otherwise it is
// worse when its median is worse than the parent's by more than the
// bound; unresolved when the parent's own spread exceeds the bound,
// unless every change run beats every parent run; and unchanged when
// none of these hold.
func Compare(parent, change []float64, higherBetter bool, bound float64) Verdict {
	n := len(parent)
	if len(change) < n {
		n = len(change)
	}
	if n == 0 {
		return Unresolved
	}
	better := func(c, p float64) bool {
		if higherBetter {
			return c > p
		}
		return c < p
	}
	wins := 0
	for i := 0; i < n; i++ {
		if better(change[i], parent[i]) {
			wins++
		}
	}
	pm, cm := Median(parent), Median(change)
	q1, q3 := Quartiles(parent)
	if 10*wins >= 9*n && better(cm, pm) && math.Abs(cm-pm) > q3-q1 {
		return Improved
	}
	// gain is the change's relative improvement over the parent's
	// median; a negative gain is a worsening.
	gain := 0.0
	if pm != 0 {
		gain = (pm - cm) / math.Abs(pm)
		if higherBetter {
			gain = -gain
		}
	}
	if gain < -bound {
		return Worse
	}
	if Spread(parent) > bound && !allBetter(parent, change, better) {
		return Unresolved
	}
	return Unchanged
}

// allBetter reports whether every change run beats every parent run.
func allBetter(parent, change []float64, better func(c, p float64) bool) bool {
	for _, c := range change {
		for _, p := range parent {
			if !better(c, p) {
				return false
			}
		}
	}
	return true
}
