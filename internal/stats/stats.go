// Package stats provides the descriptive statistics used across the
// experiment harness: summaries, quantiles, empirical CDFs, histograms,
// boxplot five-number summaries, classification metrics (precision, recall,
// F1, confusion matrices), and distribution-shape diagnostics such as the
// Gini imbalance coefficient used to assess sampling balance (Fig. 3) and
// the power-law tail of model utility (Fig. 4b).
//
// Every float product that feeds a sum is written float64(x*y) + z: the
// conversion rounds the product, so no platform fuses a multiply-add,
// and arm64 computes the same statistics, bit for bit, as amd64 (CI's
// arm64 objdump check covers this package).
package stats

import (
	"fmt"
	"math"
	"slices"
	"sort"
)

// Summary holds basic descriptive statistics of a sample.
type Summary struct {
	N      int
	Mean   float64
	Std    float64
	Min    float64
	Max    float64
	Median float64
}

// Summarize computes a Summary of xs. An empty sample yields a zero
// Summary.
func Summarize(xs []float64) Summary {
	if len(xs) == 0 {
		return Summary{}
	}
	s := Summary{N: len(xs), Min: xs[0], Max: xs[0]}
	var sum float64
	for _, x := range xs {
		sum += x
		if x < s.Min {
			s.Min = x
		}
		if x > s.Max {
			s.Max = x
		}
	}
	s.Mean = sum / float64(len(xs))
	var sq float64
	for _, x := range xs {
		d := x - s.Mean
		sq += float64(d * d)
	}
	if len(xs) > 1 {
		s.Std = math.Sqrt(sq / float64(len(xs)-1))
	}
	s.Median = Quantile(xs, 0.5)
	return s
}

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Quantile returns the q-th quantile (0 <= q <= 1) of xs using linear
// interpolation between order statistics. It does not modify xs. An empty
// sample yields 0.
func Quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	return quantileSorted(sorted, q)
}

func quantileSorted(sorted []float64, q float64) float64 {
	if q <= 0 {
		return sorted[0]
	}
	if q >= 1 {
		return sorted[len(sorted)-1]
	}
	pos := float64(q * float64(len(sorted)-1))
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return float64(sorted[lo]*(1-frac)) + float64(sorted[hi]*frac)
}

// Boxplot is a five-number summary plus mean, mirroring the boxplots in
// Fig. 7(a).
type Boxplot struct {
	Min, Q1, Median, Q3, Max, Mean float64
	N                              int
}

// BoxplotOf computes the five-number summary of xs.
func BoxplotOf(xs []float64) Boxplot {
	if len(xs) == 0 {
		return Boxplot{}
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	return Boxplot{
		Min:    sorted[0],
		Q1:     quantileSorted(sorted, 0.25),
		Median: quantileSorted(sorted, 0.5),
		Q3:     quantileSorted(sorted, 0.75),
		Max:    sorted[len(sorted)-1],
		Mean:   Mean(xs),
		N:      len(xs),
	}
}

// CDFPoint is one (value, cumulative fraction) pair of an empirical CDF.
type CDFPoint struct {
	Value float64
	Frac  float64
}

// CDF returns the empirical cumulative distribution of xs evaluated at each
// distinct sample value, in ascending order.
func CDF(xs []float64) []CDFPoint {
	if len(xs) == 0 {
		return nil
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	points := make([]CDFPoint, 0, len(sorted))
	n := float64(len(sorted))
	for i := 0; i < len(sorted); i++ {
		// Collapse ties to the last occurrence so Frac is P(X <= v).
		if i+1 < len(sorted) && sorted[i+1] == sorted[i] {
			continue
		}
		points = append(points, CDFPoint{Value: sorted[i], Frac: float64(i+1) / n})
	}
	return points
}

// Gini returns the Gini coefficient of non-negative xs: 0 for perfectly
// balanced samples, approaching 1 for maximal concentration. Used as the
// imbalance measure in the adaptive-sampling experiment (Fig. 3).
func Gini(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	var cum, total float64
	for i, x := range sorted {
		if x < 0 {
			x = 0
		}
		cum += float64(x * float64(i+1))
		total += x
	}
	if total == 0 {
		return 0
	}
	return (2*cum)/(float64(n)*total) - (float64(n)+1)/float64(n)
}

// NormalizedEntropy returns the Shannon entropy of the distribution
// obtained by normalizing non-negative xs to sum 1, divided by log(n)
// so the result lies in [0, 1]: 0 when all mass sits on one element,
// 1 when mass is uniform. Negative entries are clamped to 0; a sample
// with no positive mass, or fewer than two elements, scores 0. The
// drift detector windows this over decision scores as its uncertainty
// signal.
func NormalizedEntropy(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	var total float64
	for _, x := range xs {
		if x > 0 {
			total += x
		}
	}
	if total == 0 {
		return 0
	}
	var h float64
	for _, x := range xs {
		if x <= 0 {
			continue
		}
		p := x / total
		h -= float64(p * math.Log(p))
	}
	return h / math.Log(float64(len(xs)))
}

// PowerLawAlpha fits the exponent of a discrete power law p(r) ~ r^-alpha
// to the rank-frequency distribution of positive values xs (largest value is
// rank 1) by least squares in log-log space. Used to verify the long-tailed
// model-utility distribution of Fig. 4(b). Returns 0 when fewer than two
// positive values exist.
func PowerLawAlpha(xs []float64) float64 {
	var positive []float64
	for _, x := range xs {
		if x > 0 {
			positive = append(positive, x)
		}
	}
	if len(positive) < 2 {
		return 0
	}
	sort.Sort(sort.Reverse(sort.Float64Slice(positive)))
	var sx, sy, sxx, sxy float64
	n := float64(len(positive))
	for i, v := range positive {
		x := math.Log(float64(i + 1))
		y := math.Log(v)
		sx += x
		sy += y
		sxx += float64(x * x)
		sxy += float64(x * y)
	}
	denom := float64(n*sxx) - float64(sx*sx)
	if denom == 0 {
		return 0
	}
	slope := (float64(n*sxy) - float64(sx*sy)) / denom
	return -slope
}

// PRF1 holds precision, recall and the F1 score of a detection or
// classification outcome.
type PRF1 struct {
	Precision float64
	Recall    float64
	F1        float64
	TP        int
	FP        int
	FN        int
}

// ComputePRF1 derives precision, recall and F1 from raw counts. Empty
// denominators yield zeros, matching the convention used when a window
// contains no objects.
func ComputePRF1(tp, fp, fn int) PRF1 {
	m := PRF1{TP: tp, FP: fp, FN: fn}
	if tp+fp > 0 {
		m.Precision = float64(tp) / float64(tp+fp)
	}
	if tp+fn > 0 {
		m.Recall = float64(tp) / float64(tp+fn)
	}
	if m.Precision+m.Recall > 0 {
		m.F1 = 2 * m.Precision * m.Recall / (m.Precision + m.Recall)
	}
	return m
}

// Add accumulates counts from another PRF1 and recomputes the derived
// rates.
func (m PRF1) Add(other PRF1) PRF1 {
	return ComputePRF1(m.TP+other.TP, m.FP+other.FP, m.FN+other.FN)
}

// ConfusionMatrix is a square matrix of prediction counts: Counts[i][j] is
// the number of samples with true class i predicted as class j.
type ConfusionMatrix struct {
	Counts [][]int
	K      int
}

// NewConfusionMatrix returns an empty k-class confusion matrix.
func NewConfusionMatrix(k int) *ConfusionMatrix {
	counts := make([][]int, k)
	for i := range counts {
		counts[i] = make([]int, k)
	}
	return &ConfusionMatrix{Counts: counts, K: k}
}

// Observe records one (trueClass, predictedClass) observation. Indices out
// of range are ignored.
func (c *ConfusionMatrix) Observe(trueClass, predicted int) {
	if trueClass < 0 || trueClass >= c.K || predicted < 0 || predicted >= c.K {
		return
	}
	c.Counts[trueClass][predicted]++
}

// Accuracy returns the fraction of diagonal observations.
func (c *ConfusionMatrix) Accuracy() float64 {
	var diag, total int
	for i := 0; i < c.K; i++ {
		for j := 0; j < c.K; j++ {
			total += c.Counts[i][j]
			if i == j {
				diag += c.Counts[i][j]
			}
		}
	}
	if total == 0 {
		return 0
	}
	return float64(diag) / float64(total)
}

// RowNormalized returns the matrix with each row scaled to sum to 1 (rows
// with no observations stay zero). This is the form plotted in Fig. 6.
func (c *ConfusionMatrix) RowNormalized() [][]float64 {
	out := make([][]float64, c.K)
	for i := 0; i < c.K; i++ {
		out[i] = make([]float64, c.K)
		var rowSum int
		for j := 0; j < c.K; j++ {
			rowSum += c.Counts[i][j]
		}
		if rowSum == 0 {
			continue
		}
		for j := 0; j < c.K; j++ {
			out[i][j] = float64(c.Counts[i][j]) / float64(rowSum)
		}
	}
	return out
}

// DiagonalMass returns the mean of the row-normalized diagonal over rows
// that have observations — a scalar "how confusion-free is this matrix"
// score.
func (c *ConfusionMatrix) DiagonalMass() float64 {
	norm := c.RowNormalized()
	var sum float64
	rows := 0
	for i := 0; i < c.K; i++ {
		var rowTotal float64
		for j := 0; j < c.K; j++ {
			rowTotal += norm[i][j]
		}
		if rowTotal == 0 {
			continue
		}
		sum += norm[i][i]
		rows++
	}
	if rows == 0 {
		return 0
	}
	return sum / float64(rows)
}

// String renders the row-normalized matrix compactly for logs.
func (c *ConfusionMatrix) String() string {
	norm := c.RowNormalized()
	out := ""
	for i := range norm {
		for j := range norm[i] {
			out += fmt.Sprintf("%5.2f ", norm[i][j])
		}
		out += "\n"
	}
	return out
}

// ArgmaxFloat returns the index of the maximum element of xs (first winner
// on ties), or -1 for an empty slice.
func ArgmaxFloat(xs []float64) int {
	if len(xs) == 0 {
		return -1
	}
	best := 0
	for i := 1; i < len(xs); i++ {
		if xs[i] > xs[best] {
			best = i
		}
	}
	return best
}

// RankDescending returns the indices of xs sorted by value descending,
// breaking ties by lower index first so ranking is deterministic.
func RankDescending(xs []float64) []int {
	return RankDescendingInto(nil, xs)
}

// shortRank is the longest input RankDescendingInto sorts by straight
// insertion; slices.SortStableFunc insertion-sorts blocks of 20.
const shortRank = 20

// RankDescendingInto is RankDescending writing into dst, which is reused
// when its capacity suffices (allocating otherwise) and returned. With a
// held dst it performs no heap allocations.
func RankDescendingInto(dst []int, xs []float64) []int {
	if cap(dst) < len(xs) {
		dst = make([]int, len(xs))
	}
	idx := dst[:len(xs)]
	for i := range idx {
		idx[i] = i
	}
	if len(idx) <= shortRank {
		// The insertion sort slices.SortStableFunc runs on a block this
		// short, without the comparison closure: same swaps, same result,
		// NaN included.
		for i := 1; i < len(idx); i++ {
			for j := i; j > 0 && xs[idx[j]] > xs[idx[j-1]]; j-- {
				idx[j], idx[j-1] = idx[j-1], idx[j]
			}
		}
		return idx
	}
	slices.SortStableFunc(idx, func(a, b int) int {
		switch {
		case xs[a] > xs[b]:
			return -1
		case xs[a] < xs[b]:
			return 1
		}
		return 0
	})
	return idx
}
