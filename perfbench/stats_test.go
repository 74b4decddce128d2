package main

import (
	"testing"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending: percentile must sort
	}
	return xs
}

func TestPercentileNearestRank(t *testing.T) {
	cases := []struct {
		n      int
		p      float64
		want   float64
		beyond int
	}{
		{n: 200, p: 95, want: 190, beyond: 10},
		{n: 200, p: 50, want: 100, beyond: 100},
		{n: 10, p: 50, want: 5, beyond: 5},
		{n: 10, p: 95, want: 10, beyond: 0},
		{n: 1, p: 95, want: 1, beyond: 0},
		{n: 219, p: 95, want: 209, beyond: 10},
	}
	for _, c := range cases {
		if got := percentile(seq(c.n), c.p); got != c.want {
			t.Errorf("p%v of 1..%d = %v, want %v", c.p, c.n, got, c.want)
		}
		if got := beyond(c.n, c.p); got != c.beyond {
			t.Errorf("samples beyond p%v of %d = %d, want %d", c.p, c.n, got, c.beyond)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of no samples = %v, want 0", got)
	}
}

// TestQuartilesMatchPython pins the cut points to Python's
// statistics.quantiles(xs, n=4) on the same data.
func TestQuartilesMatchPython(t *testing.T) {
	cases := []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4}, [3]float64{1.25, 2.5, 3.75}},
		{seq(10), [3]float64{2.75, 5.5, 8.25}},
		{[]float64{5, 1, 3}, [3]float64{1, 3, 5}},
		{[]float64{2, 4}, [3]float64{1.5, 3, 4.5}},
	}
	for _, c := range cases {
		q1, q2, q3 := quartiles(c.xs)
		if [3]float64{q1, q2, q3} != c.want {
			t.Errorf("quartiles(%v) = %v %v %v, want %v", c.xs, q1, q2, q3, c.want)
		}
	}
}
