package stats

import (
	"math"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"anole/internal/xrand"
)

func almostEqual(a, b, eps float64) bool {
	return math.Abs(a-b) <= eps
}

func TestSummarizeBasic(t *testing.T) {
	s := Summarize([]float64{1, 2, 3, 4, 5})
	if s.N != 5 || s.Mean != 3 || s.Min != 1 || s.Max != 5 || s.Median != 3 {
		t.Fatalf("unexpected summary: %+v", s)
	}
	if !almostEqual(s.Std, math.Sqrt(2.5), 1e-12) {
		t.Fatalf("std = %v", s.Std)
	}
}

func TestSummarizeEmpty(t *testing.T) {
	s := Summarize(nil)
	if s.N != 0 || s.Mean != 0 {
		t.Fatalf("empty summary should be zero: %+v", s)
	}
}

func TestSummarizeSingle(t *testing.T) {
	s := Summarize([]float64{7})
	if s.Mean != 7 || s.Std != 0 || s.Median != 7 {
		t.Fatalf("single-element summary: %+v", s)
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{10, 20, 30, 40}
	tests := []struct {
		q, want float64
	}{
		{0, 10}, {1, 40}, {0.5, 25}, {0.25, 17.5}, {-1, 10}, {2, 40},
	}
	for _, tt := range tests {
		if got := Quantile(xs, tt.q); !almostEqual(got, tt.want, 1e-12) {
			t.Fatalf("Quantile(%v) = %v, want %v", tt.q, got, tt.want)
		}
	}
}

func TestQuantileDoesNotMutate(t *testing.T) {
	xs := []float64{3, 1, 2}
	Quantile(xs, 0.5)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Fatal("Quantile mutated its input")
	}
}

func TestBoxplotOf(t *testing.T) {
	b := BoxplotOf([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9})
	if b.Min != 1 || b.Max != 9 || b.Median != 5 || b.N != 9 {
		t.Fatalf("boxplot: %+v", b)
	}
	if b.Q1 != 3 || b.Q3 != 7 {
		t.Fatalf("quartiles: %+v", b)
	}
}

func TestCDFMonotone(t *testing.T) {
	r := xrand.New(1)
	xs := make([]float64, 500)
	for i := range xs {
		xs[i] = r.Norm()
	}
	pts := CDF(xs)
	if pts[len(pts)-1].Frac != 1 {
		t.Fatalf("CDF should end at 1, got %v", pts[len(pts)-1].Frac)
	}
	for i := 1; i < len(pts); i++ {
		if pts[i].Value <= pts[i-1].Value || pts[i].Frac <= pts[i-1].Frac {
			t.Fatal("CDF not strictly increasing")
		}
	}
}

func TestCDFTies(t *testing.T) {
	pts := CDF([]float64{1, 1, 2})
	if len(pts) != 2 {
		t.Fatalf("expected 2 distinct points, got %d", len(pts))
	}
	if !almostEqual(pts[0].Frac, 2.0/3.0, 1e-12) {
		t.Fatalf("P(X<=1) = %v", pts[0].Frac)
	}
}

func TestGiniBalanced(t *testing.T) {
	if g := Gini([]float64{5, 5, 5, 5}); !almostEqual(g, 0, 1e-12) {
		t.Fatalf("balanced Gini = %v", g)
	}
}

func TestGiniConcentrated(t *testing.T) {
	g := Gini([]float64{0, 0, 0, 100})
	if g < 0.7 {
		t.Fatalf("concentrated Gini = %v, want high", g)
	}
}

func TestGiniOrderInvariant(t *testing.T) {
	a := Gini([]float64{1, 5, 2, 9})
	b := Gini([]float64{9, 2, 5, 1})
	if !almostEqual(a, b, 1e-12) {
		t.Fatalf("Gini order-dependent: %v vs %v", a, b)
	}
}

func TestPowerLawAlpha(t *testing.T) {
	// Construct a perfect power law with alpha = 1.5.
	xs := make([]float64, 30)
	for i := range xs {
		xs[i] = math.Pow(float64(i+1), -1.5)
	}
	alpha := PowerLawAlpha(xs)
	if !almostEqual(alpha, 1.5, 1e-9) {
		t.Fatalf("alpha = %v, want 1.5", alpha)
	}
}

func TestPowerLawAlphaDegenerate(t *testing.T) {
	if PowerLawAlpha([]float64{0, 0}) != 0 {
		t.Fatal("degenerate power law should be 0")
	}
	if PowerLawAlpha([]float64{1}) != 0 {
		t.Fatal("single sample should be 0")
	}
}

func TestComputePRF1(t *testing.T) {
	m := ComputePRF1(8, 2, 2)
	if !almostEqual(m.Precision, 0.8, 1e-12) || !almostEqual(m.Recall, 0.8, 1e-12) {
		t.Fatalf("precision/recall: %+v", m)
	}
	if !almostEqual(m.F1, 0.8, 1e-12) {
		t.Fatalf("F1: %v", m.F1)
	}
}

func TestComputePRF1Zeros(t *testing.T) {
	m := ComputePRF1(0, 0, 0)
	if m.F1 != 0 || m.Precision != 0 || m.Recall != 0 {
		t.Fatalf("zero counts should give zero metrics: %+v", m)
	}
}

func TestPRF1Add(t *testing.T) {
	a := ComputePRF1(1, 1, 0)
	b := ComputePRF1(3, 0, 1)
	c := a.Add(b)
	if c.TP != 4 || c.FP != 1 || c.FN != 1 {
		t.Fatalf("accumulated counts: %+v", c)
	}
	if !almostEqual(c.Precision, 0.8, 1e-12) {
		t.Fatalf("accumulated precision: %v", c.Precision)
	}
}

func TestConfusionMatrix(t *testing.T) {
	cm := NewConfusionMatrix(3)
	cm.Observe(0, 0)
	cm.Observe(0, 0)
	cm.Observe(0, 1)
	cm.Observe(1, 1)
	cm.Observe(2, 0)
	cm.Observe(-1, 0) // ignored
	cm.Observe(0, 9)  // ignored
	if !almostEqual(cm.Accuracy(), 3.0/5.0, 1e-12) {
		t.Fatalf("accuracy = %v", cm.Accuracy())
	}
	norm := cm.RowNormalized()
	if !almostEqual(norm[0][0], 2.0/3.0, 1e-12) {
		t.Fatalf("row norm: %v", norm[0])
	}
	if norm[2][0] != 1 {
		t.Fatalf("row 2: %v", norm[2])
	}
}

func TestConfusionDiagonalMass(t *testing.T) {
	cm := NewConfusionMatrix(2)
	cm.Observe(0, 0)
	cm.Observe(1, 1)
	if cm.DiagonalMass() != 1 {
		t.Fatalf("perfect matrix diagonal mass = %v", cm.DiagonalMass())
	}
	empty := NewConfusionMatrix(2)
	if empty.DiagonalMass() != 0 {
		t.Fatal("empty matrix diagonal mass should be 0")
	}
}

func TestConfusionString(t *testing.T) {
	cm := NewConfusionMatrix(2)
	cm.Observe(0, 0)
	if cm.String() == "" {
		t.Fatal("String should render something")
	}
}

func TestArgmaxFloat(t *testing.T) {
	if ArgmaxFloat([]float64{1, 3, 2}) != 1 {
		t.Fatal("argmax wrong")
	}
	if ArgmaxFloat(nil) != -1 {
		t.Fatal("empty argmax should be -1")
	}
	if ArgmaxFloat([]float64{2, 2}) != 0 {
		t.Fatal("tie should pick first")
	}
}

func TestRankDescending(t *testing.T) {
	ranks := RankDescending([]float64{0.1, 0.9, 0.5})
	want := []int{1, 2, 0}
	for i := range want {
		if ranks[i] != want[i] {
			t.Fatalf("ranks = %v", ranks)
		}
	}
}

func TestRankDescendingStableTies(t *testing.T) {
	ranks := RankDescending([]float64{0.5, 0.5, 0.9})
	if ranks[0] != 2 || ranks[1] != 0 || ranks[2] != 1 {
		t.Fatalf("tie ranks = %v", ranks)
	}
}

// TestRankDescendingIntoMatchesSliceStable checks the allocation-free
// ranking against the sort.SliceStable ranking it replaced, over random
// scores with ties, NaN and ±Inf, into a reused dst of varying length,
// and pins that a held dst makes it allocation-free.
func TestRankDescendingIntoMatchesSliceStable(t *testing.T) {
	rng := xrand.New(91)
	var dst []int
	for trial := 0; trial < 500; trial++ {
		xs := make([]float64, 1+rng.Intn(40))
		for i := range xs {
			switch rng.Intn(8) {
			case 0:
				xs[i] = math.NaN()
			case 1:
				xs[i] = math.Inf(1 - 2*rng.Intn(2))
			case 2, 3:
				xs[i] = float64(rng.Intn(3)) // ties
			default:
				xs[i] = rng.Norm()
			}
		}
		want := make([]int, len(xs))
		for i := range want {
			want[i] = i
		}
		sort.SliceStable(want, func(a, b int) bool { return xs[want[a]] > xs[want[b]] })
		dst = RankDescendingInto(dst, xs)
		for i := range want {
			if dst[i] != want[i] {
				t.Fatalf("trial %d: ranks %v, want %v (scores %v)", trial, dst, want, xs)
			}
		}
	}
	xs := []float64{0.3, 0.1, 0.9, 0.3}
	dst = make([]int, len(xs))
	if allocs := testing.AllocsPerRun(100, func() { RankDescendingInto(dst, xs) }); allocs != 0 {
		t.Fatalf("RankDescendingInto with held dst: %v allocs/op, want 0", allocs)
	}
}

// TestRankDescendingIntoMatchesSortStableFunc pins the short-input
// insertion sort against the slices.SortStableFunc ranking it stands in
// for, at every length from 0 to 2·shortRank+1 (both sides of the
// cut-over), over scores with ties, NaN and ±Inf.
func TestRankDescendingIntoMatchesSortStableFunc(t *testing.T) {
	rng := xrand.New(93)
	var dst []int
	for n := 0; n <= 2*shortRank+1; n++ {
		for trial := 0; trial < 200; trial++ {
			xs := make([]float64, n)
			for i := range xs {
				switch rng.Intn(8) {
				case 0:
					xs[i] = math.NaN()
				case 1:
					xs[i] = math.Inf(1 - 2*rng.Intn(2))
				case 2, 3:
					xs[i] = float64(rng.Intn(3)) // ties
				default:
					xs[i] = rng.Norm()
				}
			}
			want := make([]int, n)
			for i := range want {
				want[i] = i
			}
			slices.SortStableFunc(want, func(a, b int) int {
				switch {
				case xs[a] > xs[b]:
					return -1
				case xs[a] < xs[b]:
					return 1
				}
				return 0
			})
			dst = RankDescendingInto(dst, xs)
			if !slices.Equal(dst, want) {
				t.Fatalf("n %d trial %d: ranks %v, want %v (scores %v)", n, trial, dst, want, xs)
			}
		}
	}
}

// BenchmarkRankDescendingInto ranks one frame's scores over a 19-model
// repertoire into a held destination, as every served frame does.
func BenchmarkRankDescendingInto(b *testing.B) {
	rng := xrand.New(94)
	xs := make([]float64, 19)
	for i := range xs {
		xs[i] = rng.Float64()
	}
	dst := make([]int, len(xs))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst = RankDescendingInto(dst, xs)
	}
}

func TestQuantilePropertyBounds(t *testing.T) {
	r := xrand.New(77)
	if err := quick.Check(func(seed uint32) bool {
		rr := r.Split(uint64(seed))
		n := rr.Intn(40) + 1
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = rr.Norm()
		}
		q := rr.Float64()
		v := Quantile(xs, q)
		sorted := append([]float64(nil), xs...)
		sort.Float64s(sorted)
		return v >= sorted[0]-1e-12 && v <= sorted[n-1]+1e-12
	}, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestGiniPropertyRange(t *testing.T) {
	r := xrand.New(88)
	if err := quick.Check(func(seed uint32) bool {
		rr := r.Split(uint64(seed))
		n := rr.Intn(30) + 2
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = rr.Float64() * 10
		}
		g := Gini(xs)
		return g >= -1e-9 && g <= 1
	}, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestPRF1PropertyF1BetweenPandR(t *testing.T) {
	// F1 is the harmonic mean, so it lies between min and max of P and R.
	if err := quick.Check(func(tp, fp, fn uint8) bool {
		m := ComputePRF1(int(tp)+1, int(fp), int(fn))
		lo := math.Min(m.Precision, m.Recall)
		hi := math.Max(m.Precision, m.Recall)
		return m.F1 >= lo-1e-12 && m.F1 <= hi+1e-12
	}, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
