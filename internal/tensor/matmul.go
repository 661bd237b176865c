package tensor

import (
	"fmt"
	"math"
	"sync"
)

// This file holds the GEMM kernels behind batched inference and
// mini-batch training.
//
// DenseInto computes a whole dense layer over a batch, dst = act(x·Wᵀ + b),
// in one pass: the weights are packed once (PackDense) into panels of
// four output columns, k-major, and each output's dot product, bias add
// and optional ReLU happen before it is stored. On amd64 with AVX2 an
// assembly loop computes four output columns of four rows per step
// (dense_amd64.s); everywhere else a pure-Go loop walks the same layout.
// Both sum every output in ascending k from +0, then add the bias, so
// each output is bit-identical to Matrix.MulVec followed by
// Vector.AddScaled(1, b): the assembly multiplies and adds separately
// (never FMA), as compiled Go does on amd64, and the portable loop
// writes MulVec's own expressions.
//
// MatMulTInto (dst = a·bᵀ) and MatMulInto (dst = a·b) run the same
// kernel with a zero bias, packing b into a pooled buffer per call. All
// reuse dst; with a correctly-sized dst the steady state performs no
// heap allocations, which is what lets nn.Weights.InferBatch stay
// 0-alloc. None spawns goroutines: callers parallelize across
// independent products.

// panelCols is the output-column width of one packed weight panel: one
// 256-bit vector of float64.
const panelCols = 4

// Packed is a dense layer's parameters laid out for DenseInto: the
// weights W (n outputs × k inputs) as ⌈n/4⌉ panels of four output
// columns, each panel k-major (the four weights of input kk are
// adjacent), and the bias b. The last panel's unused columns and the
// bias are zero-padded to a multiple of four. Any number of goroutines
// may run DenseInto on one Packed at once; it changes only when
// repacked.
type Packed struct {
	n, k int
	w    []float64 // ⌈n/4⌉ · k · 4
	b    []float64 // ⌈n/4⌉ · 4
}

// PackDense packs w (n×k) and its bias b (length n, or nil for a zero
// bias) for DenseInto.
func PackDense(w *Matrix, b Vector) *Packed {
	p := new(Packed)
	p.pack(w, b, false)
	return p
}

// Repack refills p from w and b exactly as PackDense packs them, reusing
// p's buffers when they are large enough: a trainer repacks its layers
// once per optimizer step. p must not be repacked while a DenseInto
// reads it.
func (p *Packed) Repack(w *Matrix, b Vector) { p.pack(w, b, false) }

// RepackColumns refills p with the columns of w (k×n) as its n outputs
// and a zero bias, so DenseInto(dst, x, p, false) computes x·w — every
// element bit-identical to MatMulInto(dst, x, w) — without packing w
// again per call.
func (p *Packed) RepackColumns(w *Matrix) { p.pack(w, nil, true) }

// pack (re)fills p from w and b, reusing p's buffers when they are large
// enough. w holds one row per output (n×k), or one column per output
// (k×n) when byColumn is set.
func (p *Packed) pack(w *Matrix, b Vector, byColumn bool) {
	n, k := w.Rows, w.Cols
	if byColumn {
		n, k = k, n
	}
	if b != nil && len(b) != n {
		panic(fmt.Sprintf("tensor: PackDense bias length %d for %d outputs", len(b), n))
	}
	panels := (n + panelCols - 1) / panelCols
	p.n, p.k = n, k
	p.w = resize(p.w, panels*k*panelCols)
	p.b = resize(p.b, panels*panelCols)
	clear(p.w[max(0, (panels-1)*k*panelCols):]) // the last panel's padding
	clear(p.b)
	if b != nil {
		copy(p.b, b)
	}
	// Each loop reads w in storage order; output c's weight for input kk
	// lands at panel c/4, row kk, lane c%4.
	if byColumn {
		// Row kk of w holds input kk's weight for every output: each
		// panel's four lanes are four consecutive elements of it.
		for kk := 0; kk < k; kk++ {
			row := w.Data[kk*n : (kk+1)*n]
			c0 := 0
			for ; c0+panelCols <= n; c0 += panelCols {
				d, s := p.w[c0*k+kk*panelCols:][:panelCols], row[c0:][:panelCols]
				d[0], d[1], d[2], d[3] = s[0], s[1], s[2], s[3]
			}
			if c0 < n {
				copy(p.w[c0*k+kk*panelCols:], row[c0:])
			}
		}
		return
	}
	for c := 0; c < n; c++ {
		panel := p.w[c/panelCols*k*panelCols:]
		lane := c % panelCols
		for kk, v := range w.Data[c*k : (c+1)*k] {
			panel[kk*panelCols+lane] = v
		}
	}
}

// resize returns buf with length n, reallocating only when its capacity
// is short.
func resize(buf []float64, n int) []float64 {
	if cap(buf) < n {
		return make([]float64, n)
	}
	return buf[:n]
}

// DenseInto computes dst = x·Wᵀ + b for the packed layer p, then clamps
// every output at +0 when relu is set (NaN and −0 become +0, exactly as
// max(v, 0) written as `if v > 0 { return v }; return 0`). x is m×k with
// one sample per row; dst is reused when it has shape m×n (allocated
// when nil or mis-sized) and returned. dst must not alias x. Each output
// is bit-identical to W.MulVec on its row followed by adding b.
func DenseInto(dst, x *Matrix, p *Packed, relu bool) *Matrix {
	if x.Cols != p.k {
		panic(fmt.Sprintf("tensor: DenseInto input %dx%d for a %d-input layer", x.Rows, x.Cols, p.k))
	}
	if dst == nil || dst.Rows != x.Rows || dst.Cols != p.n {
		dst = NewMatrix(x.Rows, p.n)
	}
	if dst == x {
		panic("tensor: DenseInto dst aliases its input")
	}
	if x.Rows > 0 && p.n > 0 {
		dense(dst.Data, x.Data, p.w, p.b, x.Rows, p.k, p.n, relu)
	}
	return dst
}

// dense runs the kernel: the AVX2 loop where the CPU has it, the
// portable loop otherwise.
func dense(dst, x, w, b []float64, rows, k, n int, relu bool) {
	if haveAVX2 {
		denseAVX2(dst, x, w, b, rows, k, n, relu)
		return
	}
	denseGeneric(dst, x, w, b, rows, k, n, relu)
}

// denseGeneric is the portable kernel over the packed layout: per row
// and panel, four accumulators sum in ascending k, then the bias and the
// optional ReLU apply and the panel's live columns are stored. The
// expressions mirror MulVec's (`s += x * w`), so where the compiler fuses
// multiply-adds it fuses both the same way.
func denseGeneric(dst, x, w, b []float64, rows, k, n int, relu bool) {
	for r := 0; r < rows; r++ {
		xr := x[r*k : (r+1)*k]
		orow := dst[r*n : (r+1)*n]
		for c0 := 0; c0 < n; c0 += panelCols {
			s0, s1, s2, s3 := dotPanel(xr, w[c0*k:(c0+panelCols)*k])
			bias := b[c0 : c0+panelCols]
			out := [panelCols]float64{s0 + bias[0], s1 + bias[1], s2 + bias[2], s3 + bias[3]}
			if relu {
				out = [panelCols]float64{reluOf(out[0]), reluOf(out[1]), reluOf(out[2]), reluOf(out[3])}
			}
			copy(orow[c0:], out[:])
		}
	}
}

// dotPanel returns the dot products of x with the four columns of one
// packed panel (4·len(x) weights), each summed in ascending k from +0.
func dotPanel(x, panel []float64) (s0, s1, s2, s3 float64) {
	if len(x) == 0 {
		return 0, 0, 0, 0
	}
	// One strided view per column keeps every index provably in range.
	p0 := panel[0 : len(panel)-3]
	p1 := panel[1 : len(panel)-2]
	p2 := panel[2 : len(panel)-1]
	p3 := panel[3:]
	for i, xv := range x {
		j := i * panelCols
		s0 += xv * p0[j]
		s1 += xv * p1[j]
		s2 += xv * p2[j]
		s3 += xv * p3[j]
	}
	return s0, s1, s2, s3
}

// reluOf is the ReLU `if v > 0 { return v }; return 0` (NaN and −0 give
// +0) computed with a conditional move instead of a branch: the sign of
// a pre-activation is unpredictable, and a mispredicted branch per
// output costs more than the output's dot product.
func reluOf(v float64) float64 {
	var keep uint64
	if v > 0 {
		keep = ^uint64(0)
	}
	return math.Float64frombits(math.Float64bits(v) & keep)
}

// packPool recycles the packed copies of b that MatMulInto and
// MatMulTInto run the kernel on.
var packPool = sync.Pool{New: func() any { return new(Packed) }}

// matMulPacked computes dst = a·b when b holds one column per output
// (byColumn, b k×n) and dst = a·bᵀ otherwise (b n×k), through
// DenseInto's kernel with a zero bias: the sums start at +0 and so are
// never −0, which makes adding +0 exact, and every element is
// bit-identical to the naive ascending-k dot product.
func matMulPacked(dst, a, b *Matrix, byColumn bool) *Matrix {
	p := packPool.Get().(*Packed)
	p.pack(b, nil, byColumn)
	DenseInto(dst, a, p, false)
	packPool.Put(p)
	return dst
}

// MatMulInto computes dst = a·b, reusing dst when it has shape
// a.Rows × b.Cols (allocating a fresh matrix when dst is nil or
// mis-sized) and returning dst. dst must not alias a or b. Every
// element sums in ascending k like the naive triple loop, so results
// are bit-identical to an unblocked reference (NaN/Inf propagation
// included).
func MatMulInto(dst, a, b *Matrix) *Matrix {
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("tensor: MatMul %dx%d by %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	if dst == nil || dst.Rows != a.Rows || dst.Cols != b.Cols {
		dst = NewMatrix(a.Rows, b.Cols)
	}
	if dst == a || dst == b {
		panic("tensor: MatMulInto dst aliases an operand")
	}
	return matMulPacked(dst, a, b, true)
}

// MatMulTInto computes dst = a·bᵀ for a of shape m×k and b of shape n×k,
// reusing dst when it has shape m×n (allocating when dst is nil or
// mis-sized) and returning dst. dst must not alias a or b. With X as a
// row-per-sample batch and W the out×in weight matrix, X·Wᵀ is the whole
// batch's pre-activation in one product; results are bit-identical to
// the naive reference.
func MatMulTInto(dst, a, b *Matrix) *Matrix {
	if a.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: MatMulT %dx%d by (%dx%d)ᵀ", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	if dst == nil || dst.Rows != a.Rows || dst.Cols != b.Rows {
		dst = NewMatrix(a.Rows, b.Rows)
	}
	if dst == a || dst == b {
		panic("tensor: MatMulTInto dst aliases an operand")
	}
	return matMulPacked(dst, a, b, false)
}
