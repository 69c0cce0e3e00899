package main

import (
	"math"
	"sort"
)

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// quantile is the linearly interpolated q-quantile (0 for no samples).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	pos := q * float64(len(s)-1)
	i := int(math.Floor(pos))
	if i >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// tail is the q-quantile when at least 10 samples lie beyond it, else
// the highest percentile that still has 10 samples beyond it (the
// maximum when there are 10 or fewer). It returns the value and the
// percentile used.
func tail(xs []float64, q float64) (float64, float64) {
	n := len(xs)
	if n == 0 {
		return 0, q
	}
	s := sorted(xs)
	i := int(math.Ceil(q*float64(n))) - 1
	if i > n-11 {
		i = max(n-11, 0)
	}
	if n <= 10 {
		i = n - 1
	}
	return s[i], float64(i+1) / float64(n)
}
