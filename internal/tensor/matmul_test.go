package tensor

import (
	"fmt"
	"math"
	"runtime/debug"
	"sort"
	"testing"

	"anole/internal/xrand"
)

// naiveMatMul is the unblocked ijk reference the kernels are checked
// against: dst[i][j] = Σ_k a[i][k]·b[k][j], summed in ascending k order
// with no zero-skipping, so NaN and ±Inf propagate exactly as written.
func naiveMatMul(a, b *Matrix) *Matrix {
	out := NewMatrix(a.Rows, b.Cols)
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < b.Cols; j++ {
			var sum float64
			for k := 0; k < a.Cols; k++ {
				sum += a.At(i, k) * b.At(k, j)
			}
			out.Set(i, j, sum)
		}
	}
	return out
}

// naiveMatMulT is the reference for the transposed path: dst = a·bᵀ.
func naiveMatMulT(a, b *Matrix) *Matrix {
	out := NewMatrix(a.Rows, b.Rows)
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < b.Rows; j++ {
			var sum float64
			for k := 0; k < a.Cols; k++ {
				sum += a.At(i, k) * b.At(j, k)
			}
			out.Set(i, j, sum)
		}
	}
	return out
}

// transposed returns mᵀ, for handing TMatMulInto the transpose of a
// naive reference's left operand.
func transposed(m *Matrix) *Matrix {
	t := NewMatrix(m.Cols, m.Rows)
	for r := 0; r < m.Rows; r++ {
		for c := 0; c < m.Cols; c++ {
			t.Set(c, r, m.At(r, c))
		}
	}
	return t
}

func randMatrix(rng *xrand.RNG, rows, cols int) *Matrix {
	m := NewMatrix(rows, cols)
	for i := range m.Data {
		m.Data[i] = rng.Norm()
	}
	return m
}

// TestMatMulIntoMatchesNaive sweeps random shapes — including the empty
// and single-row/column edge cases — and checks every product against
// the naive triple loop. All keep each element's ascending-k summation
// order, so all must agree bitwise.
func TestMatMulIntoMatchesNaive(t *testing.T) {
	rng := xrand.New(42)
	dims := []int{0, 1, 2, 3, 5, 8, 17, 33, 64}
	for trial := 0; trial < 200; trial++ {
		m := dims[rng.Intn(len(dims))]
		k := dims[rng.Intn(len(dims))]
		n := dims[rng.Intn(len(dims))]
		a := randMatrix(rng, m, k)
		b := randMatrix(rng, k, n)
		want := naiveMatMul(a, b)
		got := MatMulInto(nil, a, b)
		sameMatrix(t, got, want, "MatMulInto")
		sameMatrix(t, TMatMulInto(nil, transposed(a), b), want, "TMatMulInto")

		bt := randMatrix(rng, n, k)
		wantT := naiveMatMulT(a, bt)
		gotT := MatMulTInto(nil, a, bt)
		sameMatrix(t, gotT, wantT, "MatMulTInto")
	}
}

// TestMatMulLargeShapesMatchNaive checks every product at shapes well
// past every register tile and block size.
func TestMatMulLargeShapesMatchNaive(t *testing.T) {
	rng := xrand.New(7)
	a := randMatrix(rng, 300, 70)
	b := randMatrix(rng, 70, 90)
	sameMatrix(t, MatMulInto(nil, a, b), naiveMatMul(a, b), "large MatMulInto")
	sameMatrix(t, TMatMulInto(nil, transposed(a), b), naiveMatMul(a, b), "large TMatMulInto")

	bt := randMatrix(rng, 90, 70)
	sameMatrix(t, MatMulTInto(nil, a, bt), naiveMatMulT(a, bt), "large MatMulTInto")
}

// TestMatMulNaNInfPropagation pins IEEE semantics: a zero row times a
// NaN column still yields NaN (the old MatMul's zero-skip silently
// dropped it), and mixed ±Inf columns collapse to NaN exactly as the
// naive sum does.
func TestMatMulNaNInfPropagation(t *testing.T) {
	a := fromRows([][]float64{{0, 0}, {1, 2}})
	b := fromRows([][]float64{{math.NaN(), 1}, {math.Inf(1), math.Inf(-1)}})
	want := naiveMatMul(a, b)
	sameMatrix(t, MatMulInto(nil, a, b), want, "NaN/Inf MatMulInto")
	sameMatrix(t, TMatMulInto(nil, transposed(a), b), want, "NaN/Inf TMatMulInto")
	if !math.IsNaN(want.At(0, 0)) {
		t.Fatal("reference lost NaN from a zero row — test fixture broken")
	}

	bt := fromRows([][]float64{{math.NaN(), math.Inf(1)}, {1, math.Inf(-1)}})
	wantT := naiveMatMulT(a, bt)
	sameMatrix(t, MatMulTInto(nil, a, bt), wantT, "NaN/Inf MatMulTInto")
}

// TestMatMulIntoReusesDst pins the whole point of the Into form: a
// correctly-shaped dst is written in place and returned unchanged in
// identity, with stale contents fully overwritten.
func TestMatMulIntoReusesDst(t *testing.T) {
	rng := xrand.New(3)
	a := randMatrix(rng, 4, 6)
	b := randMatrix(rng, 6, 5)
	dst := NewMatrix(4, 5)
	dst.Fill(123)
	if out := MatMulInto(dst, a, b); out != dst {
		t.Fatal("MatMulInto reallocated a correctly-sized dst")
	}
	sameMatrix(t, dst, naiveMatMul(a, b), "reused dst")

	bt := randMatrix(rng, 5, 6)
	dstT := NewMatrix(4, 5)
	dstT.Fill(-9)
	if out := MatMulTInto(dstT, a, bt); out != dstT {
		t.Fatal("MatMulTInto reallocated a correctly-sized dst")
	}
	sameMatrix(t, dstT, naiveMatMulT(a, bt), "reused dstT")

	// Mis-sized dst is replaced, not written out of bounds.
	small := NewMatrix(1, 1)
	if out := MatMulInto(small, a, b); out == small {
		t.Fatal("mis-sized dst was reused")
	}
}

// TestMatMulWrapperMatchesInto keeps the legacy MatMul a faithful thin
// wrapper.
func TestMatMulWrapperMatchesInto(t *testing.T) {
	rng := xrand.New(11)
	a := randMatrix(rng, 7, 9)
	b := randMatrix(rng, 9, 4)
	sameMatrix(t, MatMul(a, b), MatMulInto(nil, a, b), "MatMul wrapper")
}

// TestMatMulZeroAllocsWithHeldDst pins the steady-state allocation
// contract of every product at small and large shapes: MatMulInto,
// TMatMulInto and DenseInto write into dst, and MatMulTInto's packed
// copy of b comes from a pool. The race detector makes sync.Pool drop a
// share of the values put back, so under -race the MatMulTInto pin
// skips.
func TestMatMulZeroAllocsWithHeldDst(t *testing.T) {
	rng := xrand.New(5)
	a, b := randMatrix(rng, 8, 8), randMatrix(rng, 8, 8)
	dst := NewMatrix(8, 8)
	if allocs := testing.AllocsPerRun(100, func() { MatMulInto(dst, a, b) }); allocs != 0 {
		t.Fatalf("small MatMulInto with held dst: %v allocs/op, want 0", allocs)
	}

	la, lb := randMatrix(rng, 128, 64), randMatrix(rng, 64, 64)
	ldst := NewMatrix(128, 64)
	if allocs := testing.AllocsPerRun(50, func() { MatMulInto(ldst, la, lb) }); allocs > 0 {
		t.Fatalf("large MatMulInto with held dst: %v allocs/op, want 0", allocs)
	}
	ta := randMatrix(rng, 128, 64)
	tndst := NewMatrix(64, 64)
	if allocs := testing.AllocsPerRun(50, func() { TMatMulInto(tndst, ta, la) }); allocs > 0 {
		t.Fatalf("large TMatMulInto with held dst: %v allocs/op, want 0", allocs)
	}

	if !raceDetectorEnabled {
		lbt := randMatrix(rng, 64, 64)
		tdst := NewMatrix(128, 64)
		MatMulTInto(tdst, la, lbt) // warm the pack pool
		if allocs := testing.AllocsPerRun(50, func() { MatMulTInto(tdst, la, lbt) }); allocs > 0 {
			t.Fatalf("large MatMulTInto with held dst: %v allocs/op, want 0", allocs)
		}
	}

	p := PackDense(randMatrix(rng, 19, 64), randMatrix(rng, 1, 19).Row(0))
	ddst := NewMatrix(128, 19)
	if allocs := testing.AllocsPerRun(50, func() { DenseInto(ddst, la, p, true) }); allocs > 0 {
		t.Fatalf("DenseInto with held dst: %v allocs/op, want 0", allocs)
	}
	sx, sc := &Matrix{Rows: 128, Cols: 54, Data: la.Data[:128*54]}, la.Row(0)[:10]
	if allocs := testing.AllocsPerRun(50, func() { DenseSuffixInto(ddst, sx, sc, p, true) }); allocs > 0 {
		t.Fatalf("DenseSuffixInto with held dst: %v allocs/op, want 0", allocs)
	}
}

// TestMatMulIntoPanics pins the programmer-error surface: inner-dimension
// mismatch and aliased destinations.
func TestMatMulIntoPanics(t *testing.T) {
	a := NewMatrix(2, 3)
	b := NewMatrix(4, 2)
	mustPanic(t, "inner mismatch", func() { MatMulInto(nil, a, b) })
	mustPanic(t, "transposed mismatch", func() { MatMulTInto(nil, a, b) })
	mustPanic(t, "left-transposed mismatch", func() { TMatMulInto(nil, a, b) })
	sq := NewMatrix(3, 3)
	mustPanic(t, "dst aliases a", func() { MatMulInto(sq, sq, NewMatrix(3, 3)) })
	mustPanic(t, "dstT aliases b", func() { MatMulTInto(sq, NewMatrix(3, 3), sq) })
	mustPanic(t, "left-transposed dst aliases a", func() { TMatMulInto(sq, sq, NewMatrix(3, 3)) })
	mustPanic(t, "dense input mismatch", func() { DenseInto(nil, a, PackDense(b, nil), false) })
	mustPanic(t, "dense dst aliases x", func() { DenseInto(sq, sq, PackDense(sq, nil), false) })
	mustPanic(t, "dense suffix mismatch", func() { DenseSuffixInto(nil, a, NewVector(2), PackDense(NewMatrix(2, 4), nil), false) })
	mustPanic(t, "bias length mismatch", func() { PackDense(sq, NewVector(2)) })
}

func mustPanic(t *testing.T, label string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("%s: no panic", label)
		}
	}()
	f()
}

// FuzzMatMulKernels drives every kernel against the naive reference
// with fuzzer-chosen shapes, seeds and special-value injection (NaN,
// ±Inf, ±0): MatMulInto, TMatMulInto, MatMulTInto and, with a bias and
// ReLU on or off (bit 3 of special), each dense kernel this CPU runs.
// All must be bitwise identical to the reference, NaN matching NaN.
func FuzzMatMulKernels(f *testing.F) {
	f.Add(uint64(1), 3, 4, 5, uint8(0))
	f.Add(uint64(2), 0, 3, 2, uint8(1))
	f.Add(uint64(3), 1, 1, 1, uint8(2))
	f.Add(uint64(4), 33, 17, 9, uint8(3))
	f.Add(uint64(5), 7, 18, 5, uint8(9))
	f.Add(uint64(6), 9, 64, 19, uint8(10))
	f.Add(uint64(7), 10, 8, 14, uint8(8))
	f.Fuzz(func(t *testing.T, seed uint64, m, k, n int, special uint8) {
		const maxDim = 48
		clamp := func(d int) int {
			if d < 0 {
				d = -d
			}
			return d % (maxDim + 1)
		}
		m, k, n = clamp(m), clamp(k), clamp(n)
		rng := xrand.New(seed)
		a := randMatrix(rng, m, k)
		b := randMatrix(rng, k, n)
		bt := randMatrix(rng, n, k)
		bias := randMatrix(rng, 1, n).Data
		for _, data := range [][]float64{a.Data, b.Data, bt.Data, bias} {
			injectSpecial(rng, data, special)
		}

		sameMatrix(t, MatMulInto(nil, a, b), naiveMatMul(a, b), "MatMulInto")
		sameMatrix(t, TMatMulInto(nil, transposed(a), b), naiveMatMul(a, b), "TMatMulInto")
		sameMatrix(t, MatMulTInto(nil, a, bt), naiveMatMulT(a, bt), "MatMulTInto")

		relu := special&8 != 0
		want := naiveDense(a, bt, bias, relu)
		sameMatrix(t, DenseInto(nil, a, PackDense(bt, bias), relu), want, "DenseInto")
		checkDenseKernels(t, a, bt, bias, relu, want)
	})
}

// injectSpecial overwrites a few elements of data: one with NaN, +Inf or
// −Inf (special mod 4 = 1, 2, 3; 0 injects none), one with −0 and one
// with +0.
func injectSpecial(rng *xrand.RNG, data []float64, special uint8) {
	if len(data) == 0 {
		return
	}
	switch special % 4 {
	case 1:
		data[rng.Intn(len(data))] = math.NaN()
	case 2:
		data[rng.Intn(len(data))] = math.Inf(1)
	case 3:
		data[rng.Intn(len(data))] = math.Inf(-1)
	}
	data[rng.Intn(len(data))] = math.Copysign(0, -1)
	data[rng.Intn(len(data))] = 0
}

// naiveDense is the reference for the fused dense kernel: per output the
// ascending-k dot product from +0 (MulVec's loop), then the bias, then
// reluFn's `v > 0 ? v : 0` when relu is set.
func naiveDense(x, w *Matrix, bias []float64, relu bool) *Matrix {
	out := NewMatrix(x.Rows, w.Rows)
	for i := 0; i < x.Rows; i++ {
		for j := 0; j < w.Rows; j++ {
			var sum float64
			for k := 0; k < x.Cols; k++ {
				sum += w.At(j, k) * x.At(i, k)
			}
			sum += bias[j]
			if relu && !(sum > 0) {
				sum = 0
			}
			out.Set(i, j, sum)
		}
	}
	return out
}

// sameBits reports whether got and want are the same float64 bit for
// bit, or both NaN (x86 and the Go compiler may pick either operand's
// NaN payload).
func sameBits(got, want float64) bool {
	return math.Float64bits(got) == math.Float64bits(want) || (math.IsNaN(got) && math.IsNaN(want))
}

func sameMatrix(t *testing.T, got, want *Matrix, label string) {
	t.Helper()
	if got.Rows != want.Rows || got.Cols != want.Cols {
		t.Fatalf("%s: shape %dx%d, want %dx%d", label, got.Rows, got.Cols, want.Rows, want.Cols)
	}
	for i, w := range want.Data {
		if !sameBits(got.Data[i], w) {
			t.Fatalf("%s: element %d = %v (%#x), want %v (%#x)", label, i,
				got.Data[i], math.Float64bits(got.Data[i]), w, math.Float64bits(w))
		}
	}
}

// kernelFunc is the dense kernel's signature (see matmul.go for the
// strides).
type kernelFunc func(dst, x, w, b, c []float64, rows, k, kc, n, xs, xr, wp, wk int, relu bool)

// denseKernels lists the dense kernels this CPU can run, called
// directly rather than through the dispatch.
func denseKernels() map[string]kernelFunc {
	ks := map[string]kernelFunc{"generic": denseGeneric}
	if haveAVX2 {
		ks["avx2"] = denseAVX2
	}
	if haveAVX512 {
		ks["avx512"] = denseAVX512
	}
	return ks
}

// TestDenseDispatch logs which form each kernel runs here — dense, the
// column moments and the nearest-point scan share one choice (CI greps
// the log to check a test build's CPU overlay) — and checks that the
// choice is one the kernel tests run, AVX-512 only with AVX2.
func TestDenseDispatch(t *testing.T) {
	name := "generic"
	switch {
	case haveAVX512:
		name = "avx512"
	case haveAVX2:
		name = "avx2"
	}
	t.Logf("dense dispatches to the %s kernel (AVX2 %v, AVX-512 %v)", name, haveAVX2, haveAVX512)
	t.Logf("column moments dispatch to the %s kernel", name)
	t.Logf("nearest point dispatches to the %s kernel", name)
	if haveAVX512 && !haveAVX2 {
		t.Fatal("AVX-512 kernel selected without AVX2")
	}
	_, dense := denseKernels()[name]
	_, moments := momentsKernels()[name]
	_, nearest := nearestKernels()[name]
	if !dense || !moments || !nearest {
		t.Fatalf("dispatched kernel %s is not among the tested kernels (dense %v, moments %v, nearest %v)", name, dense, moments, nearest)
	}
}

// checkDenseKernels runs every dense kernel on x against the packed
// (w, bias) and compares the result with want bit for bit. Each operand
// ends where an unreadable page begins (guardPages), so a load past it
// faults, and the output buffer carries guard elements past its end,
// which no kernel may touch.
func checkDenseKernels(t *testing.T, x, w *Matrix, bias []float64, relu bool, want *Matrix) {
	t.Helper()
	p := PackDense(w, bias)
	var g guardPages
	defer g.free()
	gx, gw, gb := g.copy(t, x.Data), g.copy(t, p.w), g.copy(t, p.b)
	for name, kernel := range denseKernels() {
		label := fmt.Sprintf("%s kernel %dx%dx%d relu=%v", name, x.Rows, x.Cols, w.Rows, relu)
		got := runGuarded(t, label, x.Rows, w.Rows, func(dst []float64) {
			if x.Rows > 0 && w.Rows > 0 {
				callNoFault(t, label, func() {
					kernel(dst, gx, gw, gb, nil, x.Rows, x.Cols, 0, w.Rows, 1, x.Cols, panelCols*x.Cols, panelCols, relu)
				})
			}
		})
		sameMatrix(t, got, want, label)
	}
}

// runGuarded calls run on a rows×n output buffer followed by guard
// elements, fails if run writes past the buffer, and returns the output.
func runGuarded(t *testing.T, label string, rows, n int, run func(dst []float64)) *Matrix {
	t.Helper()
	const guard = 8
	buf := make([]float64, rows*n+guard)
	for i := range buf {
		buf[i] = 12345
	}
	run(buf[:rows*n])
	for _, v := range buf[rows*n:] {
		if v != 12345 {
			t.Fatalf("%s: wrote past the output", label)
		}
	}
	return &Matrix{Rows: rows, Cols: n, Data: buf[:rows*n]}
}

// TestStridedKernelsMatchNaive runs every dense kernel on operands read
// where they lie — x row-major or given transposed, the weights as a
// row-major k×n matrix — against the naive ascending-k loop, bit for
// bit: rows 0–9 (4-row blocks and remainder rows), 1–17 output columns
// (every tail width: 1–7 live lanes of an 8-lane panel, 1–3 of a 4-lane
// half, after zero, one or two full panels), 0–6 inputs, with and
// without a bias and ReLU, and NaN, ±Inf and ±0 injected. Each operand
// ends where an unreadable page begins (guardPages), so a load past it
// faults, and the output carries guard elements.
func TestStridedKernelsMatchNaive(t *testing.T) {
	rng := xrand.New(23)
	for rows := 0; rows <= 9; rows++ {
		for n := 1; n <= 17; n++ {
			for _, k := range []int{0, 1, 3, 6} {
				xd, wd := randMatrix(rng, 1, rows*k).Data, randMatrix(rng, 1, k*n).Data
				bias := randMatrix(rng, 1, n).Data
				special := uint8(rng.Intn(4))
				for _, data := range [][]float64{xd, wd, bias} {
					injectSpecial(rng, data, special)
				}
				var g guardPages
				gx, gw, gb := g.copy(t, xd), g.copy(t, wd), g.copy(t, bias)
				for _, transposed := range []bool{false, true} {
					xs, xr := 1, k
					if transposed {
						xs, xr = rows, 1
					}
					for _, b := range [][]float64{nil, gb} {
						for _, relu := range []bool{false, true} {
							want := NewMatrix(rows, n)
							for r := 0; r < rows; r++ {
								for c := 0; c < n; c++ {
									var sum float64
									for kk := 0; kk < k; kk++ {
										sum += xd[r*xr+kk*xs] * wd[kk*n+c]
									}
									if b != nil {
										sum += bias[c]
									}
									if relu && !(sum > 0) {
										sum = 0
									}
									want.Set(r, c, sum)
								}
							}
							for name, kernel := range denseKernels() {
								label := fmt.Sprintf("%s %dx%dx%d transposed=%v bias=%v relu=%v", name, rows, k, n, transposed, b != nil, relu)
								got := runGuarded(t, label, rows, n, func(dst []float64) {
									callNoFault(t, label, func() { kernel(dst, gx, gw, b, nil, rows, k, 0, n, xs, xr, panelCols, n, relu) })
								})
								sameMatrix(t, got, want, label)
							}
						}
					}
				}
				g.free()
			}
		}
	}
}

// TestSuffixKernelsMatchNaive runs every dense kernel with a shared
// suffix operand — each row's inputs are its own k elements of x (row-major
// or given transposed) followed by the same kc elements of c, the weights
// packed as DenseSuffixInto packs them — against the naive ascending-k
// loop over the staged row [x_r | c], bit for bit: rows 0–9, 1–17 output
// columns (every tail width of a panel and of a half panel), k and kc
// each 0, 1, 3 or 10, with and without a bias and ReLU, and NaN, ±Inf
// and ±0 injected into every operand. Each operand ends where an
// unreadable page begins and the output carries guard elements. DenseSuffixInto must equal DenseInto on the staged matrix.
func TestSuffixKernelsMatchNaive(t *testing.T) {
	rng := xrand.New(29)
	for rows := 0; rows <= 9; rows++ {
		for n := 1; n <= 17; n++ {
			for _, k := range []int{0, 1, 3, 10} {
				for _, kc := range []int{0, 1, 3, 10} {
					xd, cd := randMatrix(rng, 1, rows*k).Data, randMatrix(rng, 1, kc).Data
					w := randMatrix(rng, n, k+kc)
					bias := randMatrix(rng, 1, n).Data
					special := uint8(rng.Intn(4))
					for _, data := range [][]float64{xd, cd, w.Data, bias} {
						injectSpecial(rng, data, special)
					}
					p := PackDense(w, bias)
					var g guardPages
					gx, gc, gw, gb := g.copy(t, xd), g.copy(t, cd), g.copy(t, p.w), g.copy(t, bias)
					for _, transposed := range []bool{false, true} {
						xs, xr := 1, k
						if transposed {
							xs, xr = rows, 1
						}
						staged := NewMatrix(rows, k+kc)
						for r := 0; r < rows; r++ {
							for kk := 0; kk < k; kk++ {
								staged.Set(r, kk, xd[r*xr+kk*xs])
							}
							copy(staged.Row(r)[k:], cd)
						}
						for _, b := range [][]float64{nil, gb} {
							for _, relu := range []bool{false, true} {
								want := naiveDense(staged, w, make([]float64, n), relu)
								if b != nil {
									want = naiveDense(staged, w, bias, relu)
								}
								for name, kernel := range denseKernels() {
									label := fmt.Sprintf("%s %dx(%d+%d)x%d transposed=%v bias=%v relu=%v", name, rows, k, kc, n, transposed, b != nil, relu)
									got := runGuarded(t, label, rows, n, func(dst []float64) {
										callNoFault(t, label, func() { kernel(dst, gx, gw, b, gc, rows, k, kc, n, xs, xr, panelCols*(k+kc), panelCols, relu) })
									})
									sameMatrix(t, got, want, label)
								}
							}
						}
						if !transposed {
							x := &Matrix{Rows: rows, Cols: k, Data: xd}
							label := fmt.Sprintf("DenseSuffixInto %dx(%d+%d)x%d", rows, k, kc, n)
							sameMatrix(t, DenseSuffixInto(nil, x, cd, p, true), DenseInto(nil, staged, p, true), label)
						}
					}
					g.free()
				}
			}
		}
	}
}

// callNoFault runs f and fails the test if it panics, a memory fault
// included (a read past a guardPages operand).
func callNoFault(t *testing.T, label string, f func()) {
	t.Helper()
	defer debug.SetPanicOnFault(debug.SetPanicOnFault(true))
	defer func() {
		if r := recover(); r != nil {
			t.Fatalf("%s: %v", label, r)
		}
	}()
	f()
}

// TestDenseKernelsMatchNaive sweeps every shape with 1–9 rows (block
// and row tails), 1–17 output columns (every partial panel and half
// panel, alone and after full panels) and 1–64 inputs, ReLU off and
// on, with NaN, ±Inf and ±0 injected into inputs, weights and biases,
// and checks each dense kernel bit for bit against the reference, on
// guard-paged operands.
func TestDenseKernelsMatchNaive(t *testing.T) {
	rng := xrand.New(17)
	for rows := 1; rows <= 9; rows++ {
		for cols := 1; cols <= 17; cols++ {
			for k := 1; k <= 64; k++ {
				x, w := randMatrix(rng, rows, k), randMatrix(rng, cols, k)
				bias := randMatrix(rng, 1, cols).Data
				special := uint8(rng.Intn(4))
				for _, data := range [][]float64{x.Data, w.Data, bias} {
					injectSpecial(rng, data, special)
				}
				for _, relu := range []bool{false, true} {
					checkDenseKernels(t, x, w, bias, relu, naiveDense(x, w, bias, relu))
				}
			}
		}
	}
}

// TestDenseReLUEdgeValues pins the ReLU epilogue on the values where a
// max instruction and `v > 0 ? v : 0` could disagree: NaN and −0 sums
// must come out +0, +Inf stays, −Inf and negatives clamp.
func TestDenseReLUEdgeValues(t *testing.T) {
	negZero := math.Copysign(0, -1)
	// One input, weight 1: each output is 0 + x·1 + bias.
	inputs := []float64{math.NaN(), negZero, math.Inf(1), math.Inf(-1), -2, 3}
	x := NewMatrix(len(inputs), 1)
	copy(x.Data, inputs)
	// Eleven outputs: one full panel and a partial one, each bias value
	// on lanes of both.
	w := NewMatrix(11, 1)
	w.Fill(1)
	bias := make([]float64, 11)
	for j := range bias {
		bias[j] = []float64{0, negZero, math.NaN()}[j%3]
	}
	for _, relu := range []bool{false, true} {
		want := naiveDense(x, w, bias, relu)
		if relu {
			for i, v := range want.Data {
				if math.Signbit(v) || math.IsNaN(v) {
					t.Fatalf("reference ReLU output %d = %v", i, v)
				}
			}
		}
		checkDenseKernels(t, x, w, bias, relu, want)
	}
}

// TestRepackMatchesFreshPack checks that repacking a Packed in place —
// shrinking and growing its buffers across shapes, with and without a
// bias — gives DenseInto the same bits as a fresh PackDense.
func TestRepackMatchesFreshPack(t *testing.T) {
	rng := xrand.New(12)
	var p Packed
	for _, s := range []struct{ m, k, n int }{{5, 18, 16}, {3, 7, 2}, {9, 16, 5}, {1, 1, 1}, {32, 56, 48}} {
		x, w := randMatrix(rng, s.m, s.k), randMatrix(rng, s.n, s.k)
		b := randMatrix(rng, 1, s.n).Row(0)
		p.Repack(w, b)
		sameMatrix(t, DenseInto(nil, x, PackDense(w, b), true), DenseInto(nil, x, &p, true), fmt.Sprintf("Repack %v", s))
		p.Repack(w, nil)
		sameMatrix(t, DenseInto(nil, x, PackDense(w, nil), false), DenseInto(nil, x, &p, false), fmt.Sprintf("Repack %v, no bias", s))
	}
}

// BenchmarkDenseKernels times each dense kernel this CPU runs, called
// directly on packed weights with a bias and ReLU, at the six layer
// shapes perfbench reports (rows×inputs×outputs: the encoder and head
// over a 256-frame tick, the compressed detector over 512 cell rows)
// and at the deep detector head's three layers over one 64-cell frame,
// whose first layer reads 8 inputs per cell and a 10-value shared
// suffix.
func BenchmarkDenseKernels(b *testing.B) {
	shapes := []struct {
		name        string
		m, k, kc, n int
	}{
		{"enc1_256x18x32", 256, 18, 0, 32},
		{"enc2_256x32x16", 256, 32, 0, 16},
		{"head1_256x16x24", 256, 16, 0, 24},
		{"head2_256x24x19", 256, 24, 0, 19},
		{"det1_512x18x16", 512, 18, 0, 16},
		{"det2_512x16x5", 512, 16, 0, 5},
		{"deep1_64x8+10x56", 64, 8, 10, 56},
		{"deep2_64x56x48", 64, 56, 0, 48},
		{"deep3_64x48x5", 64, 48, 0, 5},
	}
	kernels := denseKernels()
	var names []string
	for name := range kernels {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, s := range shapes {
		rng := xrand.New(1)
		x, c := randMatrix(rng, s.m, s.k), randMatrix(rng, 1, s.kc).Data
		p := PackDense(randMatrix(rng, s.n, s.k+s.kc), randMatrix(rng, 1, s.n).Data)
		dst := make([]float64, s.m*s.n)
		for _, name := range names {
			kernel := kernels[name]
			b.Run(s.name+"/"+name, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					kernel(dst, x.Data, p.w, p.b, c, s.m, s.k, s.kc, s.n, 1, s.k, panelCols*(s.k+s.kc), panelCols, true)
				}
				b.ReportMetric(2*float64(s.m*(s.k+s.kc)*s.n)*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOP/s")
			})
		}
	}
}
