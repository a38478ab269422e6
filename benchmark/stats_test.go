package main

import (
	"math"
	"testing"
	"time"
)

func TestMedianAndPercentile(t *testing.T) {
	if got := median(nil); got != 0 {
		t.Errorf("median(nil) = %v, want 0", got)
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median odd = %v, want 2", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median even = %v, want 2.5", got)
	}
	in := []float64{5, 1}
	median(in)
	if in[0] != 5 {
		t.Error("median sorted its argument in place")
	}

	sorted := make([]float64, 100)
	for i := range sorted {
		sorted[i] = float64(i + 1)
	}
	for _, tc := range []struct{ p, want float64 }{{50, 50}, {90, 90}, {99, 99}, {99.9, 100}, {100, 100}, {0.5, 1}} {
		if got := percentile(sorted, tc.p); got != tc.want {
			t.Errorf("percentile(1..100, %v) = %v, want %v", tc.p, got, tc.want)
		}
	}
	if got := percentile(nil, 99); got != 0 {
		t.Errorf("percentile(nil) = %v, want 0", got)
	}
}

// The report names the highest percentile with at least ten samples
// beyond it, so a p99 is never quoted from a handful of outliers.
func TestSupportedTail(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
	}{
		{50, 50},      // p90 would leave 5 beyond
		{100, 90},     // exactly 10 beyond p90
		{600, 90},     // p99 would leave 6
		{1000, 99},    // exactly 10 beyond p99
		{9999, 99},    // p99.9 would leave 9.999
		{10000, 99.9}, // exactly 10
		{100000, 99.99},
	} {
		if got := supportedTail(tc.n); got != tc.want {
			t.Errorf("supportedTail(%d) = %v, want %v", tc.n, got, tc.want)
		}
	}
}

// quartileSpread must agree with Python's statistics.quantiles(v, n=4),
// which is what the driver computes.
func TestQuartileSpreadMatchesPython(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25].
	v := []float64{7, 1, 9, 3, 5, 10, 2, 8, 4, 6}
	if got, want := quartileSpread(v), (8.25-2.75)/5.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("quartileSpread(1..10) = %v, want %v", got, want)
	}
	// statistics.quantiles([10, 12, 11, 30, 10.5], n=4) == [10.25, 11.0, 21.0].
	w := []float64{10, 12, 11, 30, 10.5}
	if got, want := quartileSpread(w), (21.0-10.25)/11.0; math.Abs(got-want) > 1e-12 {
		t.Errorf("quartileSpread = %v, want %v", got, want)
	}
	if got := quartileSpread([]float64{4}); got != 0 {
		t.Errorf("quartileSpread of one value = %v, want 0", got)
	}
}

// Interference only slows a slice down, so a phase reports the value a
// quarter of the way in from the good end of its slices: two disturbed
// slices of five do not move it.
func TestQuietAndSummarize(t *testing.T) {
	if got := quiet(nil, false); got != 0 {
		t.Errorf("quiet(nil) = %v, want 0", got)
	}
	for _, tc := range []struct {
		xs     []float64
		higher bool
		want   float64
	}{
		{[]float64{5, 9, 5.1, 8, 5.2}, false, 5.1},       // second best of five
		{[]float64{300, 200, 310, 305, 190}, true, 305},  // the same for a rate
		{[]float64{2.1, 2.9, 2.0}, false, 2.0},           // best of three
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9}, false, 3}, // lower quartile of nine
		{[]float64{7}, true, 7},
	} {
		if got := quiet(tc.xs, tc.higher); got != tc.want {
			t.Errorf("quiet(%v, higher=%v) = %v, want %v", tc.xs, tc.higher, got, tc.want)
		}
	}

	var segs []segStat
	for seg := 0; seg < segments; seg++ {
		lat := int64(5000) // 5 µs
		if seg == 1 || seg == 3 {
			lat = 9000 // a noisy-neighbour burst over two slices
		}
		one, two := make([]int64, 100), make([]int64, 100)
		for i := range one {
			one[i], two[i] = lat, lat+1000
		}
		segs = append(segs, newSegStat([][]int64{one, two}, 100*time.Millisecond))
	}
	st := summarize(segs)
	if st.P50us != 5 || st.P99us != 6 {
		t.Errorf("P50us, P99us = %v, %v; want 5, 6 (the disturbed slices must not move them)", st.P50us, st.P99us)
	}
	if want := 200 / 0.1; st.PerSecond != want {
		t.Errorf("PerSecond = %v, want %v", st.PerSecond, want)
	}
	if st.Samples != 1000 || st.SegmentN != 200 || st.Tail != 90 {
		t.Errorf("Samples, SegmentN, Tail = %d, %d, %v; want 1000, 200, 90", st.Samples, st.SegmentN, st.Tail)
	}
}
