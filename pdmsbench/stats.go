package main

import (
	"math"
	"sort"
	"time"
)

// minP99Samples is the sample count below which a p99 is not reported:
// with fewer than 1000 samples fewer than ten lie beyond it.
const minP99Samples = 1000

// summary condenses one set of samples.
type summary struct {
	N    int
	P50  float64
	P99  float64 // NaN when N < minP99Samples
	Mean float64
	Max  float64
}

// summarize sorts a copy of xs and reports its median, p99, mean and
// maximum. An empty input yields the zero summary with P99 NaN.
func summarize(xs []float64) summary {
	s := summary{N: len(xs), P99: math.NaN()}
	if len(xs) == 0 {
		return s
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	sum := 0.0
	for _, x := range sorted {
		sum += x
	}
	s.P50 = quantile(sorted, 0.5)
	if len(sorted) >= minP99Samples {
		s.P99 = quantile(sorted, 0.99)
	}
	s.Mean = sum / float64(len(sorted))
	s.Max = sorted[len(sorted)-1]
	return s
}

// quantile returns the q-quantile (0 ≤ q ≤ 1) of sorted, interpolating
// linearly between the two closest ranks.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	if lo >= len(sorted)-1 {
		return sorted[len(sorted)-1]
	}
	frac := pos - float64(lo)
	return sorted[lo] + frac*(sorted[lo+1]-sorted[lo])
}

// ms and us convert a duration to fractional milliseconds and
// microseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// ratio divides, reporting 0 for an empty base.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
