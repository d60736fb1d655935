package main

import (
	"math"
	"testing"
)

func TestMedianQuartilesMAD(t *testing.T) {
	// Quartiles are the values Python's statistics.quantiles(xs, n=4)
	// returns for the same samples.
	cases := []struct {
		xs             []float64
		med, q1, q3, m float64
	}{
		{[]float64{1, 5}, 3, 0, 6, 2},
		{[]float64{1, 2, 3, 4}, 2.5, 1.25, 3.75, 1},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 5.5, 2.75, 8.25, 2.5},
		{[]float64{3.1, 0.4, 2.2, 9.9, 5.0, 7.3, 1.8}, 3.1, 1.8, 7.3, 1.9},
		{[]float64{7}, 7, 7, 7, 0},
	}
	for _, c := range cases {
		q1, q3 := quartiles(c.xs)
		got := []float64{median(c.xs), q1, q3, mad(c.xs)}
		want := []float64{c.med, c.q1, c.q3, c.m}
		for i := range got {
			if math.Abs(got[i]-want[i]) > 1e-12 {
				t.Errorf("%v: median, q1, q3, mad = %v, want %v", c.xs, got, want)
				break
			}
		}
	}
	if median(nil) != 0 {
		t.Errorf("median of no samples = %v, want 0", median(nil))
	}
}

func TestJudge(t *testing.T) {
	wall := metricDef{Name: "wall_s", Better: lower, Bound: 0.10, Floor: 0.005}
	ops := metricDef{Name: "shard_ops_per_s", Better: higher, Bound: 0.10}
	sim := metricDef{Name: "get_availability", Better: exact}
	tight := []float64{0.99, 1.00, 1.00, 1.01, 1.00}
	scale := func(xs []float64, f float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x * f
		}
		return out
	}
	cases := []struct {
		name string
		d    metricDef
		a, b []float64
		want string
	}{
		{"same", wall, tight, tight, unchanged},
		{"within bound", wall, tight, scale(tight, 1.05), unchanged},
		{"slower", wall, tight, scale(tight, 1.2), worse},
		{"faster", wall, tight, scale(tight, 0.8), better},
		{"higher is better", ops, tight, scale(tight, 0.8), worse},
		{"under the floor", wall, []float64{0.010, 0.010, 0.010}, []float64{0.014, 0.014, 0.014}, unchanged},
		{"spread wider than bound", wall, []float64{0.7, 0.9, 1.0, 1.1, 1.3}, []float64{1.2, 1.3, 1.4, 1.5, 1.6}, unresolved},
		{"wide but every run better", wall, []float64{0.7, 0.9, 1.0, 1.1, 1.3}, []float64{0.3, 0.4, 0.5, 0.6, 0.65}, better},
		{"exact equal", sim, []float64{0.96}, []float64{0.96}, unchanged},
		{"exact any change", sim, []float64{0.96}, []float64{0.97}, worse},
	}
	for _, c := range cases {
		if got := judge(c.d, summarize(c.a), summarize(c.b)); got != c.want {
			t.Errorf("%s: judge = %s, want %s", c.name, got, c.want)
		}
	}
}

func TestNormalizeArgs(t *testing.T) {
	got := normalizeArgs([]string{"--workload", "x", "--trace", "1", "-seed", "3", "-trace", "-trace", "0"})
	want := []string{"--workload", "x", "--trace=1", "-seed", "3", "-trace", "-trace=0"}
	if len(got) != len(want) {
		t.Fatalf("normalizeArgs = %q, want %q", got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("normalizeArgs = %q, want %q", got, want)
		}
	}
}
