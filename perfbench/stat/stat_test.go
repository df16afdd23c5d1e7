package stat

import (
	"math"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{15, 20, 35, 40, 50}
	for _, c := range []struct {
		p    float64
		want float64
	}{
		{5, 15}, {30, 20}, {40, 20}, {50, 35}, {100, 50},
	} {
		if got := Percentile(xs, c.p); got != c.want {
			t.Errorf("Percentile(%v, %v) = %v, want %v", xs, c.p, got, c.want)
		}
	}
	// 1..1000: p99 is the 990th value, leaving exactly ten above it.
	big := make([]float64, 1000)
	for i := range big {
		big[len(big)-1-i] = float64(i + 1) // unsorted input
	}
	if got := Percentile(big, 99); got != 990 {
		t.Errorf("p99 of 1..1000 = %v, want 990", got)
	}
	if got := Percentile(nil, 50); got != 0 {
		t.Errorf("Percentile(nil) = %v, want 0", got)
	}
}

// The expected values are those of Python's
// statistics.quantiles(xs, n=4), the reference the spread rule uses.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{1, 2, 3, 4}, 1.25, 3.75},
		{[]float64{3, 1, 2}, 1, 3},
		{[]float64{5, 7}, 4.5, 7.5},
		{[]float64{10.0, 10.5, 9.8, 10.2, 11.0, 9.9, 10.1, 10.4, 10.3, 10.6}, 9.975, 10.525},
	} {
		q1, q3 := Quartiles(c.xs)
		if !near(q1, c.q1) || !near(q3, c.q3) {
			t.Errorf("Quartiles(%v) = %v, %v, want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
	xs := []float64{10.0, 10.5, 9.8, 10.2, 11.0, 9.9, 10.1, 10.4, 10.3, 10.6}
	if got, want := Spread(xs), (10.525-9.975)/10.25; !near(got, want) {
		t.Errorf("Spread = %v, want %v", got, want)
	}
}

func TestMedian(t *testing.T) {
	if got := Median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median = %v", got)
	}
	if got := Median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %v", got)
	}
}

func series(base, step float64, n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = base + step*float64(i%5)
	}
	return xs
}

func TestCompareVerdicts(t *testing.T) {
	parent := series(100, 1, 10) // 100..104, spread ~3%
	for _, c := range []struct {
		name         string
		change       []float64
		higherBetter bool
		bound        float64
		want         Verdict
	}{
		// Every pair won by 20%: far beyond the parent's IQR.
		{"clear gain", series(80, 1, 10), false, 0.1, Improved},
		// Same direction for a higher-is-better metric.
		{"clear gain higher", series(120, 1, 10), true, 0.1, Improved},
		// Identical runs: no pair won, no worsening.
		{"same", series(100, 1, 10), false, 0.1, Unchanged},
		// A 5% worsening inside a 10% bound is not a regression.
		{"small loss", series(105, 1, 10), false, 0.1, Unchanged},
		// A 20% worsening is.
		{"regression", series(120, 1, 10), false, 0.1, Worse},
		{"regression higher", series(80, 1, 10), true, 0.1, Worse},
		// Parent spread (~3%) wider than a 1% bound: not resolvable.
		{"noisy", series(100.5, 1, 10), false, 0.01, Unresolved},
	} {
		if got := Compare(parent, c.change, c.higherBetter, c.bound); got != c.want {
			t.Errorf("%s: Compare = %s, want %s", c.name, got, c.want)
		}
	}
}

func TestCompareNeedsNineTenths(t *testing.T) {
	parent := series(100, 1, 10)
	// Eight of ten pairs won by a wide margin, two lost: the medians
	// differ by far more than the IQR, but 8/10 < 9/10.
	change := series(80, 1, 10)
	change[0], change[1] = 150, 150
	if got := Compare(parent, change, false, 0.5); got == Improved {
		t.Errorf("8/10 wins judged %s, want not improved", got)
	}
	// Nine of ten suffices.
	change[0] = 80
	if got := Compare(parent, change, false, 0.5); got != Improved {
		t.Errorf("9/10 wins judged %s, want improved", got)
	}
	// Nine of ten wins, but by less than the parent's IQR: not a gain.
	tiny := series(99.9, 1, 10)
	if got := Compare(parent, tiny, false, 0.5); got != Unchanged {
		t.Errorf("sub-IQR gain judged %s, want unchanged", got)
	}
	// An unresolvable spread is resolved when every change run beats
	// every parent run.
	far := series(50, 1, 10)
	if got := Compare(parent, far, false, 0.001); got != Improved {
		t.Errorf("disjoint better runs judged %s, want improved", got)
	}
}
