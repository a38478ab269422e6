package main

import (
	"math"
	"sort"
)

// segments is how many slices every timed load phase is cut into. The
// slices of the query, GET and batch phases are interleaved (one of each
// per round), and each phase reports the quiet quartile of its slices.
const segments = 5

// quiet returns the value a quarter of the way in from the good end of
// xs: the second best of five, the best of three, the lower quartile of
// many (the upper one when higher is better); 0 for an empty slice.
//
// Interference on a shared machine only ever makes a measurement worse,
// and on the reference VM it comes in bursts of 20 to 70 seconds that
// slow everything by 30-40%. A median follows such a burst as soon as it
// covers half the repetitions; the quiet quartile still reports the
// undisturbed value while a quarter of them escape it, and differs from
// the median by a percent or two when nothing interferes.
func quiet(xs []float64, higherIsBetter bool) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := (len(s) - 1) / 4
	if higherIsBetter {
		i = len(s) - 1 - i
	}
	return s[i]
}

// median returns the middle value of xs (the mean of the two middle
// values for an even count), or 0 for an empty slice. xs is not
// modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of
// an ascending-sorted sample, or 0 for an empty one.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// tailPercentiles are the tail percentiles a latency report may name,
// ascending.
var tailPercentiles = []float64{90, 99, 99.9, 99.99}

// supportedTail returns the highest of tailPercentiles that a sample of
// n values supports: one with at least ten samples beyond it. A sample
// too small for p90 supports only the median and reports 50.
func supportedTail(n int) float64 {
	best := 50.0
	for _, p := range tailPercentiles {
		// In hundredths of a percent, so that 10000 samples beyond p99.9
		// are exactly ten and not 9.999….
		if beyond := float64(n) * float64(10000-int(p*100+0.5)) / 10000; beyond >= 10 {
			best = p
		}
	}
	return best
}

// sortedFloats converts nanosecond samples to an ascending float slice
// scaled by 1/div (div 1e3 gives microseconds).
func sortedFloats(ns []int64, div float64) []float64 {
	out := make([]float64, len(ns))
	for i, v := range ns {
		out[i] = float64(v) / div
	}
	sort.Float64s(out)
	return out
}

// mean returns the arithmetic mean of xs, or 0 for an empty slice.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// quartileSpread is the acceptance statistic of the benchmark contract:
// the distance between the first and third quartile of xs as a share of
// their median, with the quartiles computed like Python's
// statistics.quantiles(xs, n=4) (the exclusive method). It reports 0
// for fewer than two values or a zero median.
func quartileSpread(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	q := func(k int) float64 {
		// CPython's exclusive method: cut point k of 4 sits at position
		// k*(n+1)/4 on a 1-based scale, interpolated between neighbours.
		j := k * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(k*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	med := median(s)
	if med == 0 {
		return 0
	}
	return (q(3) - q(1)) / math.Abs(med)
}
