package main

import "testing"

func around(base float64, n int, step float64) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = base + step*float64(i)
	}
	return xs
}

func TestCompareVerdicts(t *testing.T) {
	base := around(100, 10, 1) // 100..109, spread about 5%
	wide := []float64{50, 150, 60, 140, 70, 130, 80, 120, 90, 110}
	cases := []struct {
		name       string
		base, head []float64
		better     string
		bound      float64
		want       string
		wins       int
	}{
		{"faster on every pair", base, around(80, 10, 1), "lower", 0.1, "improved", 10},
		{"slower beyond the bound", base, around(120, 10, 1), "lower", 0.1, "regressed", 0},
		{"within noise and bound", base, around(100.5, 10, 1), "lower", 0.1, "unchanged", 0},
		{"spread wider than the bound", wide, []float64{110, 60, 140, 90, 130, 50, 150, 70, 120, 80}, "lower", 0.1, "unresolved", 5},
		{"higher is better", base, around(120, 10, 1), "higher", 0.1, "improved", 10},
		{"higher is better, lower reads", base, around(80, 10, 1), "higher", 0.1, "regressed", 0},
		// Too few pairs to claim a gain, but every change run beats every
		// parent run, so the wide spread does not leave it unresolved.
		{"all better, few pairs", []float64{100, 160, 130}, []float64{60, 70, 65}, "lower", 0.1, "unchanged", 3},
	}
	for _, c := range cases {
		got := compareMetric(c.base, c.head, c.better, c.bound)
		if got.verdict != c.want || got.wins != c.wins {
			t.Errorf("%s: verdict %q with %d/%d wins, want %q with %d wins",
				c.name, got.verdict, got.wins, got.pairs, c.want, c.wins)
		}
	}
}

func TestCompareNeedsTenPairsToImprove(t *testing.T) {
	got := compareMetric(around(100, 9, 1), around(80, 9, 1), "lower", 0.1)
	if got.verdict == "improved" {
		t.Fatalf("nine pairs claimed an improvement")
	}
}
