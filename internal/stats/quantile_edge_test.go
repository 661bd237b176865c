package stats

import (
	"math"
	"testing"
)

// TestQuantileSingleSample pins the degenerate one-observation case the
// telemetry histograms hit on their very first Observe: every quantile
// is that observation.
func TestQuantileSingleSample(t *testing.T) {
	for _, q := range []float64{0, 0.25, 0.5, 0.95, 0.99, 1} {
		if got := Quantile([]float64{3.5}, q); got != 3.5 {
			t.Errorf("Quantile([3.5], %v) = %v", q, got)
		}
	}
}

// TestQuantileAllEqual pins the all-identical case (e.g. a latency
// histogram fed by a constant simulator): interpolation between equal
// order statistics must return exactly that value, never drift.
func TestQuantileAllEqual(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = 0.125
	}
	for _, q := range []float64{0, 0.5, 0.95, 0.999, 1} {
		if got := Quantile(xs, q); got != 0.125 {
			t.Errorf("Quantile(all-0.125, %v) = %v", q, got)
		}
	}
}

// TestQuantileOutOfRangeQ pins clamping: q outside [0,1] returns the
// extremes rather than indexing out of bounds.
func TestQuantileOutOfRangeQ(t *testing.T) {
	xs := []float64{1, 2, 3}
	if got := Quantile(xs, -0.5); got != 1 {
		t.Errorf("q=-0.5 -> %v, want min", got)
	}
	if got := Quantile(xs, 1.5); got != 3 {
		t.Errorf("q=1.5 -> %v, want max", got)
	}
}

// TestQuantileTwoSamplesInterpolates pins exact linear interpolation on
// the smallest interpolatable sample.
func TestQuantileTwoSamplesInterpolates(t *testing.T) {
	xs := []float64{0, 10}
	for _, tc := range []struct{ q, want float64 }{
		{0.5, 5}, {0.25, 2.5}, {0.95, 9.5},
	} {
		if got := Quantile(xs, tc.q); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("Quantile([0,10], %v) = %v, want %v", tc.q, got, tc.want)
		}
	}
}

// TestQuantileEmptyIsZero pins the zero-sample convention shared with
// the telemetry layer: no observations -> 0, never NaN.
func TestQuantileEmptyIsZero(t *testing.T) {
	for _, q := range []float64{0, 0.5, 1} {
		got := Quantile(nil, q)
		if got != 0 || math.IsNaN(got) {
			t.Errorf("Quantile(nil, %v) = %v", q, got)
		}
	}
}

// TestSummarizeSingleSample pins Summary on one observation: std 0 (not
// NaN from an n-1 division), all positional stats equal to the sample.
func TestSummarizeSingleSample(t *testing.T) {
	s := Summarize([]float64{7})
	if s.N != 1 || s.Mean != 7 || s.Median != 7 || s.Min != 7 || s.Max != 7 {
		t.Fatalf("summary = %+v", s)
	}
	if s.Std != 0 || math.IsNaN(s.Std) {
		t.Fatalf("single-sample std = %v, want 0", s.Std)
	}
}
