package main

import "sort"

// summary is the distribution of one quantity's per-op samples: how many
// there are and their quartiles. Every timed metric carries one in the
// run's diagnostics, so a noisy run can be told apart from a regression.
type summary struct {
	N   int     `json:"n"`
	P25 float64 `json:"p25"`
	P50 float64 `json:"p50"`
	P75 float64 `json:"p75"`
}

// quantile returns the q-quantile (0..1) of xs by linear interpolation
// between order statistics; xs is left unchanged.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func summarize(xs []float64) summary {
	return summary{N: len(xs), P25: quantile(xs, 0.25), P50: quantile(xs, 0.5), P75: quantile(xs, 0.75)}
}
