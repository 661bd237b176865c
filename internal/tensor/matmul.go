package tensor

import (
	"fmt"
	"math"
	"sync"
)

// This file holds the one GEMM kernel behind batched inference and
// mini-batch training, and the products built on it.
//
// The kernel computes dst = act([x | c]·w + b) for a row-major dst: each
// row's inputs are its own k elements of x followed by the same kc
// elements of a shared suffix c (kc = 0 for every product but
// DenseSuffixInto). It reads x and w through strides: element (r, kk)
// of x sits at x[r·xr + kk·xs], and output column j's weight for input
// kk (suffix inputs numbered on from k) at w[(j/8)·wp + kk·wk + j%8] —
// the weights come in panels of eight adjacent output columns. Each
// output's dot product, bias add and optional ReLU happen before it is
// stored. The kernel has three forms, one chosen once at start-up from
// CPUID (cpu_amd64.go): on amd64 with AVX-512F an assembly loop
// computes one 8-column panel of four rows per step in 512-bit
// registers (dense512_amd64.s); with AVX2 only, the same loop runs each
// panel as two 4-column halves in 256-bit registers (dense_amd64.s);
// everywhere else a pure-Go loop reads the same strides. All three sum
// every output in ascending k from +0, x's inputs then c's, then add
// the bias, so each output is bit-identical to Matrix.MulVec on the row
// [x | c] followed by Vector.AddScaled(1, b): the assembly multiplies
// and adds separately (never FMA), as compiled Go does on amd64, and
// the portable loop rounds each product before adding it, as MulVec
// does.
//
// The strides let each product read its operands where they lie:
//
//   - DenseInto reads a Packed layer, whose weights were copied once
//     into k-major panels (wp = 8k, wk = 8), so that a layer stored one
//     row per output can be applied many times. DenseSuffixInto reads
//     the same panels with the layer's last inputs taken from c: rows
//     that share a context (a frame's cells and the frame's descriptor)
//     are never staged, and each suffix product is computed once per
//     block of rows.
//   - MatMulInto (a·b) and TMatMulInto (aᵀ·b) read row-major b in place
//     (wp = 8, wk = b.Cols); TMatMulInto reads a's columns as rows
//     (xs = a.Cols, xr = 1).
//   - MatMulTInto (a·bᵀ) packs b into a pooled Packed per call: the
//     lanes of one panel would be b.Cols apart in place.
//
// A partial last panel loads and stores only its live lanes, so no
// access goes past an operand. Every product reuses dst; with a
// correctly-sized dst the steady state performs no heap allocations,
// which is what lets nn.Weights.InferBatch and the trainer's step stay
// 0-alloc. None spawns goroutines: callers parallelize across
// independent products.

// panelCols is the output-column width of one weight panel: one 512-bit
// vector of float64, or two 256-bit ones.
const panelCols = 8

// Packed is a dense layer's parameters laid out for DenseInto: the
// weights W (n outputs × k inputs) as ⌈n/8⌉ panels of eight output
// columns, each panel k-major (the eight weights of input kk are
// adjacent), and the bias b. The last panel's unused lanes are never
// read. Any number of goroutines may run DenseInto on one Packed at
// once; it changes only when repacked.
type Packed struct {
	n, k int
	w    []float64 // ⌈n/8⌉ · k · 8
	b    []float64 // n, or empty for a zero bias
}

// PackDense packs w (n×k) and its bias b (length n, or nil for a zero
// bias) for DenseInto.
func PackDense(w *Matrix, b Vector) *Packed {
	p := new(Packed)
	p.Repack(w, b)
	return p
}

// Repack refills p from w and b exactly as PackDense packs them, reusing
// p's buffers when they are large enough: a trainer repacks its layers
// once per optimizer step. p must not be repacked while a DenseInto
// reads it.
func (p *Packed) Repack(w *Matrix, b Vector) {
	n, k := w.Rows, w.Cols
	if b != nil && len(b) != n {
		panic(fmt.Sprintf("tensor: PackDense bias length %d for %d outputs", len(b), n))
	}
	p.n, p.k = n, k
	p.w = resize(p.w, (n+panelCols-1)/panelCols*k*panelCols)
	p.b = append(p.b[:0], b...)
	// Read w in storage order: output c's weight for input kk lands at
	// panel c/8, row kk, lane c%8.
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
	return DenseSuffixInto(dst, x, nil, p, relu)
}

// DenseSuffixInto is DenseInto over the rows [x_r | c]: every row of x
// followed by the same suffix c, read in place, so x.Cols + len(c) must
// be p's input count. Each output is bit-identical to DenseInto on the
// staged m×(x.Cols + len(c)) matrix.
func DenseSuffixInto(dst, x *Matrix, c Vector, p *Packed, relu bool) *Matrix {
	if x.Cols+len(c) != p.k {
		panic(fmt.Sprintf("tensor: dense input %dx%d and a %d-value suffix for a %d-input layer", x.Rows, x.Cols, len(c), p.k))
	}
	if dst == nil || dst.Rows != x.Rows || dst.Cols != p.n {
		dst = NewMatrix(x.Rows, p.n)
	}
	if dst == x {
		panic("tensor: DenseInto dst aliases its input")
	}
	if x.Rows > 0 && p.n > 0 {
		dense(dst.Data, x.Data, p.w, p.b, c, x.Rows, x.Cols, len(c), p.n, 1, x.Cols, panelCols*p.k, panelCols, relu)
	}
	return dst
}

// dense runs the kernel (see the top of this file for the strides): the
// widest assembly loop the CPU has, the portable loop otherwise.
func dense(dst, x, w, b, c []float64, rows, k, kc, n, xs, xr, wp, wk int, relu bool) {
	switch {
	case haveAVX512:
		denseAVX512(dst, x, w, b, c, rows, k, kc, n, xs, xr, wp, wk, relu)
	case haveAVX2:
		denseAVX2(dst, x, w, b, c, rows, k, kc, n, xs, xr, wp, wk, relu)
	default:
		denseGeneric(dst, x, w, b, c, rows, k, kc, n, xs, xr, wp, wk, relu)
	}
}

// denseGeneric is the portable kernel: per row and panel, one
// accumulator per live column sums x's k inputs and then c's kc in
// ascending order, then the bias (when b is not empty) and the optional
// ReLU apply and the panel's live columns are stored.
func denseGeneric(dst, x, w, b, c []float64, rows, k, kc, n, xs, xr, wp, wk int, relu bool) {
	for r := 0; r < rows; r++ {
		orow := dst[r*n : (r+1)*n]
		for c0 := 0; c0 < n; c0 += panelCols {
			lanes := min(panelCols, n-c0)
			wi := c0 / panelCols * wp
			var out [panelCols]float64
			dotPanel(&out, x, r*xr, xs, w, wi, wk, k, lanes)
			dotPanel(&out, c, 0, 1, w, wi+k*wk, wk, kc, lanes)
			live := out[:lanes]
			if len(b) > 0 {
				for l, bv := range b[c0 : c0+lanes] {
					live[l] += bv
				}
			}
			if relu {
				for l, v := range live {
					live[l] = reluOf(v)
				}
			}
			copy(orow[c0:], live)
		}
	}
}

// dotPanel adds to s the products of the k elements of x from xi at
// stride xs with the first lanes columns of one weight panel, whose
// weights for input kk start at w[wi + kk·wk], in ascending k: four
// columns at a time in registers, then one at a time. The explicit
// float64 conversion rounds each product before the add, so no
// platform fuses them into a multiply-add.
func dotPanel(s *[panelCols]float64, x []float64, xi, xs int, w []float64, wi, wk, k, lanes int) {
	l := 0
	for ; l+4 <= lanes; l += 4 {
		s0, s1, s2, s3 := s[l], s[l+1], s[l+2], s[l+3]
		for xj, wj, kk := xi, wi+l, k; kk > 0; kk-- {
			xv, p := x[xj], w[wj:wj+4]
			s0 += float64(xv * p[0])
			s1 += float64(xv * p[1])
			s2 += float64(xv * p[2])
			s3 += float64(xv * p[3])
			xj, wj = xj+xs, wj+wk
		}
		s[l], s[l+1], s[l+2], s[l+3] = s0, s1, s2, s3
	}
	for ; k > 0 && l < lanes; k-- {
		xv := x[xi]
		for j, wv := range w[wi+l : wi+lanes] {
			s[l+j] += float64(xv * wv)
		}
		xi, wi = xi+xs, wi+wk
	}
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

// packPool recycles the packed copies of b that MatMulTInto runs the
// kernel on.
var packPool = sync.Pool{New: func() any { return new(Packed) }}

// MatMulInto computes dst = a·b, reusing dst when it has shape
// a.Rows × b.Cols (allocating a fresh matrix when dst is nil or
// mis-sized) and returning dst. dst must not alias a or b. Every
// element sums in ascending k like the naive triple loop, so results
// are bit-identical to an unblocked reference (NaN/Inf propagation
// included). The kernel reads b in place.
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
	if a.Rows > 0 && b.Cols > 0 {
		dense(dst.Data, a.Data, b.Data, nil, nil, a.Rows, a.Cols, 0, b.Cols, 1, a.Cols, panelCols, b.Cols, false)
	}
	return dst
}

// TMatMulInto computes dst = aᵀ·b for a of shape k×m and b of shape k×n,
// reusing dst when it has shape m×n (allocating when dst is nil or
// mis-sized) and returning dst. dst must not alias a or b. The kernel
// reads both operands in place, a's columns as the rows of aᵀ. With G
// and X two batches of one row per sample, Gᵀ·X is a dense layer's
// weight gradient summed over the batch, in ascending sample order;
// results are bit-identical to the naive reference.
func TMatMulInto(dst, a, b *Matrix) *Matrix {
	if a.Rows != b.Rows {
		panic(fmt.Sprintf("tensor: TMatMul (%dx%d)ᵀ by %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	if dst == nil || dst.Rows != a.Cols || dst.Cols != b.Cols {
		dst = NewMatrix(a.Cols, b.Cols)
	}
	if dst == a || dst == b {
		panic("tensor: TMatMulInto dst aliases an operand")
	}
	if a.Cols > 0 && b.Cols > 0 {
		dense(dst.Data, a.Data, b.Data, nil, nil, a.Cols, a.Rows, 0, b.Cols, a.Cols, 1, panelCols, b.Cols, false)
	}
	return dst
}

// MatMulTInto computes dst = a·bᵀ for a of shape m×k and b of shape n×k,
// reusing dst when it has shape m×n (allocating when dst is nil or
// mis-sized) and returning dst. dst must not alias a or b. With X as a
// row-per-sample batch and W the out×in weight matrix, X·Wᵀ is the whole
// batch's pre-activation in one product; results are bit-identical to
// the naive reference. b is packed into a pooled buffer per call.
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
	p := packPool.Get().(*Packed)
	p.Repack(b, nil)
	DenseInto(dst, a, p, false)
	packPool.Put(p)
	return dst
}
