package tensor

import (
	"math"
	"testing"
	"testing/quick"

	"anole/internal/xrand"
)

func almostEqual(a, b, eps float64) bool {
	return math.Abs(a-b) <= eps
}

// fromRows builds a matrix from row slices of one length.
func fromRows(rows [][]float64) *Matrix {
	m := NewMatrix(len(rows), len(rows[0]))
	for i, r := range rows {
		copy(m.Row(i), r)
	}
	return m
}

func TestVectorAddScaled(t *testing.T) {
	v := Vector{1, 2}
	v.AddScaled(2, Vector{10, 20})
	if v[0] != 21 || v[1] != 42 {
		t.Fatalf("axpy: %v", v)
	}
}

func TestVectorScaleFill(t *testing.T) {
	v := Vector{1, 2}
	v.Scale(3)
	if v[1] != 6 {
		t.Fatalf("scale: %v", v)
	}
	v.Fill(7)
	if v[0] != 7 || v[1] != 7 {
		t.Fatalf("fill: %v", v)
	}
}

func TestVectorArgmax(t *testing.T) {
	if (Vector{1, 5, 3}).Argmax() != 1 {
		t.Fatal("argmax wrong")
	}
	if (Vector{}).Argmax() != -1 {
		t.Fatal("empty argmax should be -1")
	}
}

func TestVectorClone(t *testing.T) {
	v := Vector{1, 2}
	c := v.Clone()
	c[0] = 99
	if v[0] != 1 {
		t.Fatal("clone aliases original")
	}
}

func TestSquaredDistance(t *testing.T) {
	d := (Vector{0, 0}).SquaredDistance(Vector{3, 4})
	if d != 25 {
		t.Fatalf("distance = %v", d)
	}
}

// TestSquaredDistanceBelowMatchesFullScan pins the bounded distance
// against the full one: for every bound, the result is below the bound
// exactly when the full distance is, and then equal to it bit for bit;
// and a first-minimum argmin scan over centroids picks the same index and
// minimum bits with either form. Embeddings are random with NaN, ±Inf
// and ±0 injected, and centroids repeat (ties) and coincide with the
// point (zero distance).
func TestSquaredDistanceBelowMatchesFullScan(t *testing.T) {
	rng := xrand.New(31)
	inf := math.Inf(1)
	for trial := 0; trial < 2000; trial++ {
		dim := 1 + rng.Intn(17)
		p := randMatrix(rng, 1, dim).Row(0)
		cents := make([]Vector, 1+rng.Intn(12))
		for i := range cents {
			switch {
			case i > 0 && rng.Intn(4) == 0:
				cents[i] = cents[rng.Intn(i)]
			case rng.Intn(8) == 0:
				cents[i] = p.Clone()
			default:
				cents[i] = randMatrix(rng, 1, dim).Row(0)
			}
			if rng.Intn(3) == 0 {
				injectSpecial(rng, cents[i], uint8(rng.Intn(4)))
			}
		}
		if rng.Intn(4) == 0 {
			injectSpecial(rng, p, uint8(rng.Intn(4)))
		}
		for _, c := range cents {
			full := p.SquaredDistance(c)
			for _, bound := range []float64{inf, -inf, math.NaN(), 0, full, math.Nextafter(full, inf), math.Nextafter(full, -inf), full / 2, rng.Float64() * 2 * float64(dim)} {
				got := p.SquaredDistanceBelow(c, bound)
				if (got < bound) != (full < bound) || (full < bound && !sameBits(got, full)) {
					t.Fatalf("trial %d: SquaredDistanceBelow(bound %v) = %v, full distance %v", trial, bound, got, full)
				}
			}
		}
		wantI, wantD := -1, inf
		gotI, gotD := -1, inf
		for i, c := range cents {
			if d := p.SquaredDistance(c); d < wantD {
				wantI, wantD = i, d
			}
			if d := p.SquaredDistanceBelow(c, gotD); d < gotD {
				gotI, gotD = i, d
			}
		}
		if gotI != wantI || !sameBits(gotD, wantD) {
			t.Fatalf("trial %d: bounded scan picks %d (%v), full scan %d (%v)", trial, gotI, gotD, wantI, wantD)
		}
	}
}

func TestSoftmaxSumsToOne(t *testing.T) {
	out := Softmax(nil, Vector{1, 2, 3})
	var sum float64
	for _, x := range out {
		sum += x
	}
	if !almostEqual(sum, 1, 1e-12) {
		t.Fatalf("softmax sum = %v", sum)
	}
	if !(out[2] > out[1] && out[1] > out[0]) {
		t.Fatalf("softmax not monotone: %v", out)
	}
}

func TestSoftmaxStableWithLargeValues(t *testing.T) {
	out := Softmax(nil, Vector{1000, 1001})
	if math.IsNaN(out[0]) || math.IsInf(out[1], 0) {
		t.Fatalf("softmax overflow: %v", out)
	}
	if !almostEqual(out[0]+out[1], 1, 1e-12) {
		t.Fatalf("sum: %v", out)
	}
}

func TestSoftmaxShiftInvariance(t *testing.T) {
	a := Softmax(nil, Vector{1, 2, 3})
	b := Softmax(nil, Vector{101, 102, 103})
	for i := range a {
		if !almostEqual(a[i], b[i], 1e-12) {
			t.Fatalf("shift variance at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestSoftmaxReusesDst(t *testing.T) {
	dst := NewVector(2)
	out := Softmax(dst, Vector{0, 0})
	if &out[0] != &dst[0] {
		t.Fatal("softmax should reuse correctly sized dst")
	}
	if !almostEqual(out[0], 0.5, 1e-12) {
		t.Fatalf("uniform softmax: %v", out)
	}
}

func TestLogSumExp(t *testing.T) {
	v := Vector{math.Log(1), math.Log(2), math.Log(3)}
	if got := LogSumExp(v); !almostEqual(got, math.Log(6), 1e-12) {
		t.Fatalf("lse = %v", got)
	}
	if !math.IsInf(LogSumExp(nil), -1) {
		t.Fatal("empty lse should be -inf")
	}
}

func TestMatrixBasics(t *testing.T) {
	m := NewMatrix(2, 3)
	m.Set(1, 2, 5)
	if m.At(1, 2) != 5 {
		t.Fatal("set/at mismatch")
	}
	row := m.Row(1)
	row[0] = 9
	if m.At(1, 0) != 9 {
		t.Fatal("row view should alias")
	}
}

func TestMulVec(t *testing.T) {
	m := fromRows([][]float64{{1, 2}, {3, 4}})
	out := m.MulVec(nil, Vector{1, 1})
	if out[0] != 3 || out[1] != 7 {
		t.Fatalf("mulvec: %v", out)
	}
}

func TestMulVecT(t *testing.T) {
	m := fromRows([][]float64{{1, 2}, {3, 4}})
	out := m.MulVecT(nil, Vector{1, 1})
	if out[0] != 4 || out[1] != 6 {
		t.Fatalf("mulvecT: %v", out)
	}
}

func TestMulVecTMatchesExplicitTranspose(t *testing.T) {
	r := xrand.New(5)
	m := NewMatrix(4, 3)
	for i := range m.Data {
		m.Data[i] = r.Norm()
	}
	v := Vector{r.Norm(), r.Norm(), r.Norm(), r.Norm()}
	got := m.MulVecT(nil, v)
	want := NewVector(3)
	for j := 0; j < 3; j++ {
		for i := 0; i < 4; i++ {
			want[j] += m.At(i, j) * v[i]
		}
	}
	for j := range want {
		if !almostEqual(got[j], want[j], 1e-12) {
			t.Fatalf("col %d: %v vs %v", j, got[j], want[j])
		}
	}
}

func TestAddOuterScaled(t *testing.T) {
	m := NewMatrix(2, 2)
	m.AddOuterScaled(2, Vector{1, 2}, Vector{3, 4})
	if m.At(0, 0) != 6 || m.At(1, 1) != 16 {
		t.Fatalf("outer: %+v", m.Data)
	}
}

// TestZeroMultiplierSkipsNonFinite pins the per-sample gradient
// helpers' zero skip: an infinite element under a zero multiplier
// contributes nothing to MulVecT or AddOuterScaled, while the same
// product through MatMulInto forms 0·Inf = NaN.
func TestZeroMultiplierSkipsNonFinite(t *testing.T) {
	inf := math.Inf(1)
	m := fromRows([][]float64{{inf, 1}, {2, 3}})
	if got := m.MulVecT(nil, Vector{0, 1}); got[0] != 2 || got[1] != 3 {
		t.Fatalf("MulVecT skipping a zero multiplier: %v, want [2 3]", got)
	}
	if got := MatMulInto(nil, fromRows([][]float64{{0, 1}}), m); !math.IsNaN(got.At(0, 0)) || got.At(0, 1) != 3 {
		t.Fatalf("MatMulInto through 0·Inf: %v, want [NaN 3]", got.Data)
	}
	o := NewMatrix(2, 2)
	o.AddOuterScaled(1, Vector{0, 1}, Vector{inf, 1})
	if o.At(0, 0) != 0 || o.At(0, 1) != 0 || !math.IsInf(o.At(1, 0), 1) || o.At(1, 1) != 1 {
		t.Fatalf("AddOuterScaled skipping a zero multiplier: %v", o.Data)
	}
}

func TestMatMul(t *testing.T) {
	a := fromRows([][]float64{{1, 2}, {3, 4}})
	b := fromRows([][]float64{{5, 6}, {7, 8}})
	c := MatMul(a, b)
	want := [][]float64{{19, 22}, {43, 50}}
	for i := 0; i < 2; i++ {
		for j := 0; j < 2; j++ {
			if c.At(i, j) != want[i][j] {
				t.Fatalf("matmul[%d][%d] = %v", i, j, c.At(i, j))
			}
		}
	}
}

func TestMatMulPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected shape panic")
		}
	}()
	MatMul(NewMatrix(2, 3), NewMatrix(2, 3))
}

func TestMatrixCloneScaleAddScaled(t *testing.T) {
	m := fromRows([][]float64{{1, 2}})
	c := m.Clone()
	c.Scale(10)
	if m.At(0, 0) != 1 {
		t.Fatal("clone aliases")
	}
	m.AddScaled(1, c)
	if m.At(0, 1) != 22 {
		t.Fatalf("addScaled: %v", m.Data)
	}
}

func TestMatrixFill(t *testing.T) {
	m := NewMatrix(2, 2)
	m.Fill(3)
	if m.At(1, 1) != 3 {
		t.Fatal("fill failed")
	}
}

// Property: MulVec is linear — m*(a*x + y) = a*(m*x) + m*y.
func TestMulVecLinearity(t *testing.T) {
	r := xrand.New(9)
	if err := quick.Check(func(seed uint32) bool {
		rr := r.Split(uint64(seed))
		rows, cols := rr.Intn(5)+1, rr.Intn(5)+1
		m := NewMatrix(rows, cols)
		for i := range m.Data {
			m.Data[i] = rr.Norm()
		}
		x := NewVector(cols)
		y := NewVector(cols)
		for i := range x {
			x[i] = rr.Norm()
			y[i] = rr.Norm()
		}
		a := rr.Norm()
		combo := NewVector(cols)
		for i := range combo {
			combo[i] = a*x[i] + y[i]
		}
		left := m.MulVec(nil, combo)
		mx := m.MulVec(nil, x)
		my := m.MulVec(nil, y)
		for i := 0; i < rows; i++ {
			if !almostEqual(left[i], a*mx[i]+my[i], 1e-9) {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: softmax output is a probability vector.
func TestSoftmaxProperty(t *testing.T) {
	r := xrand.New(10)
	if err := quick.Check(func(seed uint32) bool {
		rr := r.Split(uint64(seed))
		n := rr.Intn(10) + 1
		v := NewVector(n)
		for i := range v {
			v[i] = rr.Norm() * 10
		}
		out := Softmax(nil, v)
		var sum float64
		for _, p := range out {
			if p < 0 || p > 1 {
				return false
			}
			sum += p
		}
		return almostEqual(sum, 1, 1e-9)
	}, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkMulVec128(b *testing.B) {
	m := NewMatrix(128, 128)
	v := NewVector(128)
	dst := NewVector(128)
	for i := 0; i < b.N; i++ {
		m.MulVec(dst, v)
	}
}
