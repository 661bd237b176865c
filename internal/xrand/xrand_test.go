package xrand

import (
	"math"
	"testing"
	"testing/quick"
)

func TestNewDeterministic(t *testing.T) {
	a := New(42)
	b := New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams diverged at draw %d", i)
		}
	}
}

func TestNewDifferentSeedsDiffer(t *testing.T) {
	a := New(1)
	b := New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("seeds 1 and 2 produced %d/100 identical draws", same)
	}
}

func TestNewLabeledIndependence(t *testing.T) {
	a := NewLabeled(7, "alpha")
	b := NewLabeled(7, "beta")
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("labeled streams overlapped in %d/100 draws", same)
	}
}

func TestNewLabeledDeterministic(t *testing.T) {
	a := NewLabeled(7, "alpha")
	b := NewLabeled(7, "alpha")
	if a.Uint64() != b.Uint64() {
		t.Fatal("identical labels should give identical streams")
	}
}

func TestSplitDecorrelates(t *testing.T) {
	parent := New(99)
	c1 := parent.Split(1)
	c2 := parent.Split(2)
	same := 0
	for i := 0; i < 100; i++ {
		if c1.Uint64() == c2.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("split children overlapped in %d/100 draws", same)
	}
}

func TestZeroSeedUsable(t *testing.T) {
	r := New(0)
	seen := make(map[uint64]bool)
	for i := 0; i < 100; i++ {
		seen[r.Uint64()] = true
	}
	if len(seen) < 99 {
		t.Fatalf("zero seed produced only %d distinct values out of 100", len(seen))
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(3)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %v", f)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	r := New(4)
	var sum float64
	const n = 100000
	for i := 0; i < n; i++ {
		sum += r.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("uniform mean = %v, want ~0.5", mean)
	}
}

func TestIntnBounds(t *testing.T) {
	r := New(5)
	counts := make([]int, 7)
	for i := 0; i < 70000; i++ {
		v := r.Intn(7)
		if v < 0 || v >= 7 {
			t.Fatalf("Intn(7) returned %d", v)
		}
		counts[v]++
	}
	for i, c := range counts {
		if c < 8000 || c > 12000 {
			t.Fatalf("bucket %d got %d draws, expected ~10000", i, c)
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestNormMoments(t *testing.T) {
	r := New(6)
	const n = 200000
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		x := r.Norm()
		sum += x
		sumSq += x * x
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean) > 0.02 {
		t.Fatalf("normal mean = %v, want ~0", mean)
	}
	if math.Abs(variance-1) > 0.03 {
		t.Fatalf("normal variance = %v, want ~1", variance)
	}
}

func TestNormMS(t *testing.T) {
	r := New(7)
	const n = 100000
	var sum float64
	for i := 0; i < n; i++ {
		sum += r.NormMS(5, 2)
	}
	mean := sum / n
	if math.Abs(mean-5) > 0.05 {
		t.Fatalf("NormMS mean = %v, want ~5", mean)
	}
}

func TestExpMean(t *testing.T) {
	r := New(8)
	const n = 100000
	var sum float64
	for i := 0; i < n; i++ {
		x := r.Exp()
		if x < 0 {
			t.Fatalf("Exp returned negative %v", x)
		}
		sum += x
	}
	mean := sum / n
	if math.Abs(mean-1) > 0.03 {
		t.Fatalf("exponential mean = %v, want ~1", mean)
	}
}

func TestGammaMean(t *testing.T) {
	r := New(9)
	for _, shape := range []float64{0.5, 1, 2.5, 7} {
		const n = 100000
		var sum float64
		for i := 0; i < n; i++ {
			x := r.Gamma(shape)
			if x < 0 {
				t.Fatalf("Gamma(%v) returned negative %v", shape, x)
			}
			sum += x
		}
		mean := sum / n
		if math.Abs(mean-shape) > 0.06*shape+0.03 {
			t.Fatalf("Gamma(%v) mean = %v, want ~%v", shape, mean, shape)
		}
	}
}

func TestBetaMean(t *testing.T) {
	r := New(10)
	cases := []struct{ a, b float64 }{{1, 1}, {2, 5}, {5, 2}, {0.5, 0.5}}
	for _, tc := range cases {
		const n = 60000
		var sum float64
		for i := 0; i < n; i++ {
			x := r.Beta(tc.a, tc.b)
			if x < 0 || x > 1 {
				t.Fatalf("Beta(%v,%v) returned %v", tc.a, tc.b, x)
			}
			sum += x
		}
		want := tc.a / (tc.a + tc.b)
		mean := sum / n
		if math.Abs(mean-want) > 0.02 {
			t.Fatalf("Beta(%v,%v) mean = %v, want ~%v", tc.a, tc.b, mean, want)
		}
	}
}

func TestBetaPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Beta(0, 1) did not panic")
		}
	}()
	New(1).Beta(0, 1)
}

func TestCategoricalDistribution(t *testing.T) {
	r := New(11)
	weights := []float64{1, 0, 3}
	counts := make([]int, 3)
	const n = 40000
	for i := 0; i < n; i++ {
		counts[r.Categorical(weights)]++
	}
	if counts[1] != 0 {
		t.Fatalf("zero-weight bucket drawn %d times", counts[1])
	}
	frac0 := float64(counts[0]) / n
	if math.Abs(frac0-0.25) > 0.02 {
		t.Fatalf("bucket 0 frequency = %v, want ~0.25", frac0)
	}
}

func TestCategoricalPanicsOnZeroSum(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Categorical with zero weights did not panic")
		}
	}()
	New(1).Categorical([]float64{0, 0})
}

func TestPermIsPermutation(t *testing.T) {
	r := New(12)
	if err := quick.Check(func(nRaw uint8) bool {
		n := int(nRaw%50) + 1
		p := r.Perm(n)
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestShuffleKeepsElements(t *testing.T) {
	r := New(13)
	s := []int{1, 2, 3, 4, 5, 6}
	sum := 0
	r.ShuffleInts(s)
	for _, v := range s {
		sum += v
	}
	if sum != 21 {
		t.Fatalf("shuffle changed multiset; sum = %d", sum)
	}
}

func TestBoolEdges(t *testing.T) {
	r := New(14)
	for i := 0; i < 100; i++ {
		if r.Bool(0) {
			t.Fatal("Bool(0) returned true")
		}
		if !r.Bool(1) {
			t.Fatal("Bool(1) returned false")
		}
	}
}

func TestBoolFrequency(t *testing.T) {
	r := New(15)
	hits := 0
	const n = 50000
	for i := 0; i < n; i++ {
		if r.Bool(0.3) {
			hits++
		}
	}
	frac := float64(hits) / n
	if math.Abs(frac-0.3) > 0.02 {
		t.Fatalf("Bool(0.3) frequency = %v", frac)
	}
}

func TestMul128(t *testing.T) {
	tests := []struct {
		a, b   uint64
		hi, lo uint64
	}{
		{0, 0, 0, 0},
		{1, 1, 0, 1},
		{math.MaxUint64, 2, 1, math.MaxUint64 - 1},
		{1 << 32, 1 << 32, 1, 0},
	}
	for _, tt := range tests {
		hi, lo := mul128(tt.a, tt.b)
		if hi != tt.hi || lo != tt.lo {
			t.Fatalf("mul128(%d,%d) = (%d,%d), want (%d,%d)", tt.a, tt.b, hi, lo, tt.hi, tt.lo)
		}
	}
}

func BenchmarkUint64(b *testing.B) {
	r := New(1)
	for i := 0; i < b.N; i++ {
		_ = r.Uint64()
	}
}

func BenchmarkNorm(b *testing.B) {
	r := New(1)
	for i := 0; i < b.N; i++ {
		_ = r.Norm()
	}
}

func TestDirichletMoments(t *testing.T) {
	r := New(17)
	alphas := []float64{2, 5, 3}
	const n = 30000
	means := make([]float64, 3)
	buf := make([]float64, 3)
	for i := 0; i < n; i++ {
		r.Dirichlet(buf, alphas)
		var sum float64
		for j, v := range buf {
			if v < 0 || v > 1 {
				t.Fatalf("component %v out of range", v)
			}
			means[j] += v
			sum += v
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Fatalf("draw sums to %v", sum)
		}
	}
	total := 10.0
	for j, a := range alphas {
		want := a / total
		got := means[j] / n
		if math.Abs(got-want) > 0.01 {
			t.Fatalf("component %d mean %v, want ~%v", j, got, want)
		}
	}
}

func TestDirichletPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(1).Dirichlet(nil, []float64{1, 0})
}

func TestDirichletAllocates(t *testing.T) {
	r := New(18)
	out := r.Dirichlet(nil, []float64{1, 1})
	if len(out) != 2 {
		t.Fatalf("allocated length %d", len(out))
	}
}
