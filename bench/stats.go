package main

import (
	"math"
	"slices"
)

// summary is a metric's reported value and its distribution over a run's
// timed repeats.
type summary struct {
	Value  float64 `json:"value"`
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	N      int     `json:"n"`
}

// summarize returns the median and quartiles of xs, and the median as the
// value. Quartiles are computed like Python's statistics.quantiles(xs, n=4)
// (the "exclusive" method), so spreads printed here match the ones an
// external check computes.
func summarize(xs []float64) summary {
	if len(xs) == 0 {
		return summary{}
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	med := s[n/2]
	if n%2 == 0 {
		med = (s[n/2-1] + s[n/2]) / 2
	}
	if n == 1 {
		return summary{Value: med, Median: med, Q1: med, Q3: med, N: 1}
	}
	quartile := func(i int) float64 {
		m := n + 1
		j := min(max(i*m/4, 1), n-1)
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return summary{Value: med, Median: med, Q1: quartile(1), Q3: quartile(3), N: n}
}

// withValue reports v in place of the median.
func (s summary) withValue(v float64) summary {
	s.Value = v
	return s
}

// spread is the repeats' interquartile distance as a share of their median.
func (s summary) spread() float64 {
	if s.Median == 0 {
		return 0
	}
	return (s.Q3 - s.Q1) / math.Abs(s.Median)
}

// geomean returns the geometric mean of positive xs (0 if xs is empty or
// holds a non-positive value, which no timed run produces).
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		if x <= 0 {
			return 0
		}
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}
