package main

import (
	"sort"
	"time"
)

// quantile returns the q-quantile (0..1) of vs by linear interpolation
// between closest ranks. vs is sorted in place.
func quantile(vs []float64, q float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	sort.Float64s(vs)
	pos := q * float64(len(vs)-1)
	lo := int(pos)
	if lo+1 >= len(vs) {
		return vs[len(vs)-1]
	}
	f := pos - float64(lo)
	return vs[lo]*(1-f) + vs[lo+1]*f
}

func median(vs []float64) float64 { return quantile(append([]float64(nil), vs...), 0.5) }

func durations(ds []time.Duration, unit time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(unit)
	}
	return out
}

func nanos(ns []int64, unit time.Duration) []float64 {
	out := make([]float64, len(ns))
	for i, d := range ns {
		out[i] = float64(d) / float64(unit)
	}
	return out
}
