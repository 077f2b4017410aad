package main

import (
	"math"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b)) }

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		in   []float64
		want float64
	}{
		{nil, 0}, {[]float64{4}, 4}, {[]float64{3, 1, 2}, 2}, {[]float64{4, 1, 3, 2}, 2.5},
	} {
		if got := median(c.in); got != c.want {
			t.Errorf("median(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

// The expected values are what Python's statistics.quantiles(v, n=4)
// prints, which is how the driver takes a spread.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		in   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{4, 3, 2, 1}, [3]float64{1.25, 2.5, 3.75}},
		{[]float64{10, 20}, [3]float64{7.5, 15, 22.5}},
		{[]float64{3, 1, 2}, [3]float64{1, 2, 3}},
		{[]float64{5, 1, 9, 3, 7, 2, 8}, [3]float64{2, 5, 8}},
		{[]float64{6}, [3]float64{6, 6, 6}},
	} {
		q1, q2, q3 := quartiles(c.in)
		if got := [3]float64{q1, q2, q3}; got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.in, got, c.want)
		}
	}
	if got := spreadFrac([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); !near(got, 1) {
		t.Errorf("spreadFrac = %v, want (8.25-2.75)/5.5 = 1", got)
	}
}

func TestPercentileNearestRank(t *testing.T) {
	v := make([]float64, 100)
	for i := range v {
		v[i] = float64(100 - i) // 100..1, unsorted on purpose
	}
	for _, c := range []struct{ p, want float64 }{{50, 50}, {99, 99}, {100, 100}, {1, 1}, {0, 1}} {
		if got := percentile(v, c.p); got != c.want {
			t.Errorf("percentile(1..100, %v) = %v, want %v", c.p, got, c.want)
		}
	}
}

// The tail is reported at the highest percentile of the ladder that has
// at least ten samples beyond it.
func TestTailPercentileRule(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{20, 0, false}, {99, 0, false}, {100, 90, true}, {199, 90, true}, {200, 95, true},
		{999, 95, true}, {1000, 99, true}, {50000, 99, true},
	} {
		got, ok := tailPercentile(c.n)
		if got != c.want || ok != c.ok {
			t.Errorf("tailPercentile(%d) = %v, %v; want %v, %v", c.n, got, ok, c.want, c.ok)
		}
	}
}

func TestKarpFlatt(t *testing.T) {
	for _, c := range []struct {
		speedup float64
		p       int
		want    float64
	}{
		{2, 2, 0},      // perfect scaling: nothing serial
		{1, 2, 1},      // no speedup: everything serial
		{1.6, 2, 0.25}, // (1/1.6 - 1/2) / (1 - 1/2)
		{4, 8, (0.25 - 0.125) / 0.875},
		{3, 1, 0}, // undefined on one processor
	} {
		if got := karpFlatt(c.speedup, c.p); !near(got, c.want) {
			t.Errorf("karpFlatt(%v, %d) = %v, want %v", c.speedup, c.p, got, c.want)
		}
	}
}

func TestGeomean(t *testing.T) {
	if got := geomean(2, 8); !near(got, 4) {
		t.Errorf("geomean(2, 8) = %v, want 4", got)
	}
	if got := geomean(3, 0, 5); got != 0 {
		t.Errorf("geomean with a zero = %v, want 0", got)
	}
}
