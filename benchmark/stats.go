package main

import (
	"math"
	"sort"
)

// sorted returns a sorted copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// quantile returns the q-quantile (0..1) of xs by linear interpolation
// between order statistics; xs need not be sorted. It returns NaN for
// an empty sample.
func quantile(xs []float64, q float64) float64 { return quantileSorted(sorted(xs), q) }

func quantileSorted(s []float64, q float64) float64 {
	if len(s) == 0 {
		return math.NaN()
	}
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// summary is the five-number description of a sample that result files
// carry, so -compare can judge spread without the raw samples.
type summary struct {
	N   int     `json:"n"`
	Min float64 `json:"min"`
	P25 float64 `json:"p25"`
	P50 float64 `json:"p50"`
	P75 float64 `json:"p75"`
	Max float64 `json:"max"`
}

func summarize(xs []float64) summary {
	if len(xs) == 0 {
		return summary{}
	}
	s := sorted(xs)
	return summary{
		N:   len(s),
		Min: s[0],
		P25: quantileSorted(s, 0.25),
		P50: quantileSorted(s, 0.5),
		P75: quantileSorted(s, 0.75),
		Max: s[len(s)-1],
	}
}

// spread is the interquartile range as a share of the median: the
// run-to-run noise measure the bounds in BENCHMARK.json are compared
// against.
func (s summary) spread() float64 {
	if s.N < 2 || s.P50 == 0 {
		return 0
	}
	return (s.P75 - s.P25) / math.Abs(s.P50)
}

// chunkMedians splits xs, in order, into at most n equal chunks and
// returns each chunk's median: the per-repetition series of a sample
// that was not collected in repetitions.
func chunkMedians(xs []float64, n int) []float64 {
	if len(xs) < 2*n {
		return nil
	}
	out := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, median(xs[i*len(xs)/n:(i+1)*len(xs)/n]))
	}
	return out
}
