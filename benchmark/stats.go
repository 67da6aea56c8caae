package main

import "sort"

// sorted returns a sorted copy.
func sorted(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

// median of v (mean of the middle two for an even count); 0 when empty.
func median(v []float64) float64 {
	s := sorted(v)
	n := len(s)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// minMax returns the extremes of v (0, 0 when empty).
func minMax(v []float64) (lo, hi float64) {
	if len(v) == 0 {
		return 0, 0
	}
	s := sorted(v)
	return s[0], s[len(s)-1]
}

// rank is the nearest-rank position (1-based) of the permille-th
// quantile among n ascending samples, in integers so that p90 of 100
// samples is the 90th, not the 91st.
func rank(n, permille int) int {
	return max(1, (n*permille+999)/1000)
}

// tail is a timing summary: the median and the highest percentile that
// still has at least ten samples beyond it, with the sample count — a
// p99 of 50 samples would be one observation, not a percentile.
type tail struct {
	N       int
	P50     float64
	HighPct float64 // 99.9, 99, 90, or 50 when the sample is too small for more
	High    float64
	Max     float64
}

func pickTail(v []float64) tail {
	s := sorted(v)
	n := len(s)
	t := tail{N: n, P50: median(s), HighPct: 50, High: median(s)}
	if n == 0 {
		return t
	}
	t.Max = s[n-1]
	for _, pm := range []int{999, 990, 900} {
		if r := rank(n, pm); n-r >= 10 {
			t.HighPct, t.High = float64(pm)/10, s[r-1]
			break
		}
	}
	return t
}
