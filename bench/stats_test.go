package main

import (
	"math"
	"testing"
)

func TestSummarizeMatchesPythonQuantiles(t *testing.T) {
	// Expected values are statistics.median and statistics.quantiles(xs, n=4).
	for _, tc := range []struct {
		xs          []float64
		q1, med, q3 float64
	}{
		{[]float64{7}, 7, 7, 7},
		{[]float64{2, 1}, 0.75, 1.5, 2.25},
		{[]float64{3, 1, 2}, 1, 2, 3},
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, 2.75, 5.5, 8.25},
		{[]float64{1.5, 0.5, 4, 2, 3}, 1, 2, 3.5},
	} {
		s := summarize(tc.xs)
		if s.N != len(tc.xs) || s.Q1 != tc.q1 || s.Median != tc.med || s.Q3 != tc.q3 || s.Value != tc.med {
			t.Errorf("summarize(%v) = %+v, want q1 %v median %v q3 %v", tc.xs, s, tc.q1, tc.med, tc.q3)
		}
	}
	if s := summarize(nil); s != (summary{}) {
		t.Errorf("summarize(nil) = %+v, want zero", s)
	}
}

func TestSpread(t *testing.T) {
	s := summarize([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if got, want := s.spread(), (8.25-2.75)/5.5; got != want {
		t.Errorf("spread = %v, want %v", got, want)
	}
}

func TestGeomean(t *testing.T) {
	if got := geomean([]float64{1, 4, 16}); math.Abs(got-4) > 1e-12 {
		t.Errorf("geomean(1,4,16) = %v, want 4", got)
	}
	if got := geomean([]float64{3}); math.Abs(got-3) > 1e-12 {
		t.Errorf("geomean(3) = %v, want 3", got)
	}
	if got := geomean(nil); got != 0 {
		t.Errorf("geomean(nil) = %v, want 0", got)
	}
}

func TestJudge(t *testing.T) {
	tight := func(m float64) summary { return summary{Value: m, Median: m, Q1: m * 0.99, Q3: m * 1.01, N: 5} }
	for _, tc := range []struct {
		a, b   summary
		better string
		want   string
	}{
		{tight(10), tight(10.5), "lower", "within bound"},
		{tight(10), tight(11.5), "lower", "REGRESSION"},
		{tight(10), tight(8.5), "lower", "improved"},
		{tight(10), tight(8.5), "higher", "REGRESSION"},
		{tight(10), summary{Value: 10, Median: 10, Q1: 8, Q3: 12, N: 5}, "lower", "unresolved"},
	} {
		if got := judge(tc.a, tc.b, tc.better, 0.1); got != tc.want {
			t.Errorf("judge(%v -> %v, %s) = %q, want %q", tc.a.Median, tc.b.Median, tc.better, got, tc.want)
		}
	}
}
