package nn

import (
	"fmt"
	"math"
	"sync"

	"anole/internal/tensor"
)

// BatchScratch is the per-execution working set for running a Weights
// program over a whole batch at once: ping-pong activation matrices plus
// caller-usable input/output staging, all row-major with one sample per
// row. One package-level pool serves every program. Each buffer grows
// on demand to the largest shape asked of it — the activations to the
// batch rows times the widest layer of the programs run on the scratch,
// the staging matrices to the shapes their callers request — and is
// then reused, so the steady state (same batch shape) performs no heap
// allocations. A BatchScratch belongs to one goroutine at a time;
// acquire one with AcquireBatchScratch or pass nil to InferBatch and let
// it borrow one from the pool.
type BatchScratch struct {
	pingBuf, pongBuf, inBuf, outBuf []float64
	// Reused matrix headers re-sliced over the buffers per call, so
	// callers and the layer loop never allocate tensor.Matrix values.
	ping, pong, inM, outM tensor.Matrix
}

// batchPool recycles BatchScratch values across every program.
var batchPool = sync.Pool{New: func() any { return new(BatchScratch) }}

// grow returns buf with room for n values, reallocating only when its
// capacity is short. Matrices already handed out over the old buffer
// keep it, and stay valid.
func grow(buf []float64, n int) []float64 {
	if cap(buf) < n {
		return make([]float64, n)
	}
	return buf[:cap(buf)]
}

// view re-points one of the scratch's matrix headers at buf with the
// given shape.
func view(m *tensor.Matrix, buf []float64, rows, cols int) *tensor.Matrix {
	m.Rows, m.Cols, m.Data = rows, cols, buf[:rows*cols]
	return m
}

// In returns the scratch's input staging matrix shaped rows × cols, for
// callers assembling batch inputs (one sample per row) without
// allocating per call. The matrix is distinct from the ping-pong and
// output buffers, so it may be passed to InferBatch on the same
// BatchScratch.
func (s *BatchScratch) In(rows, cols int) *tensor.Matrix {
	s.inBuf = grow(s.inBuf, rows*cols)
	return view(&s.inM, s.inBuf, rows, cols)
}

// Out returns the scratch's output matrix shaped rows × cols, suitable
// as InferBatch's dst while the same scratch serves the intermediate
// layers.
func (s *BatchScratch) Out(rows, cols int) *tensor.Matrix {
	s.outBuf = grow(s.outBuf, rows*cols)
	return view(&s.outM, s.outBuf, rows, cols)
}

// AcquireBatchScratch borrows a batch scratch from the shared pool. Pair
// with ReleaseBatchScratch; holding one across many InferBatch calls
// keeps the steady-state batch path allocation-free.
func (w *Weights) AcquireBatchScratch() *BatchScratch {
	return batchPool.Get().(*BatchScratch)
}

// ReleaseBatchScratch returns s to the shared pool. s must not be used
// afterwards.
func (w *Weights) ReleaseBatchScratch(s *BatchScratch) {
	if s != nil {
		batchPool.Put(s)
	}
}

// InferBatch runs the full program on a batch of inputs (one sample per
// row of in) and writes the outputs into dst (one result per row),
// allocating only when dst is nil or mis-shaped. dst must not alias in.
// s supplies the intermediate activation matrices; pass nil to borrow
// one from the shared pool. Each dense layer, together with a ReLU right
// after it, executes as one fused kernel call over the whole batch
// (tensor.DenseInto against the layer's packed weights: product, bias
// and ReLU before the store), so a batch of B samples costs one GEMM
// instead of B GEMVs. The kernel sums each dot product in the same
// ascending order as MulVec and adds the bias after it, so per sample
// the result is bit-identical to the thawed Network's Forward. Infer is
// this path over one row.
func (w *Weights) InferBatch(dst, in *tensor.Matrix, s *BatchScratch) *tensor.Matrix {
	return w.inferBatchThrough(len(w.layers), dst, in, nil, s)
}

// InferBatchThrough runs the first k layers only over the batch, the
// batch form of InferThrough (embedding extraction).
func (w *Weights) InferBatchThrough(k int, dst, in *tensor.Matrix, s *BatchScratch) *tensor.Matrix {
	if k < 0 || k > len(w.layers) {
		panic(fmt.Sprintf("nn: InferBatchThrough(%d) with %d layers", k, len(w.layers)))
	}
	return w.inferBatchThrough(k, dst, in, nil, s)
}

// InferBatchSuffix is InferBatch over the rows [x_r | c]: each sample's
// input is its row of x followed by the same suffix c, which the first
// dense layer reads in place (tensor.DenseSuffixInto), so rows that
// share a context need not be staged. x.Cols + len(c) must be InDim, and
// each output row is bit-identical to InferBatch on the staged row.
func (w *Weights) InferBatchSuffix(dst, x *tensor.Matrix, c tensor.Vector, s *BatchScratch) *tensor.Matrix {
	return w.inferBatchThrough(len(w.layers), dst, x, c, s)
}

// inferBatchThrough runs the first k layers over the rows [in_r | c].
func (w *Weights) inferBatchThrough(k int, dst, in *tensor.Matrix, c tensor.Vector, s *BatchScratch) *tensor.Matrix {
	if w.inDim > 0 && in.Cols+len(c) != w.inDim {
		panic(fmt.Sprintf("nn: batch infer input dim %d+%d, want %d", in.Cols, len(c), w.inDim))
	}
	if len(c) > 0 && (k == 0 || w.layers[0].w == nil) {
		panic("nn: a batch input suffix needs a dense first layer")
	}
	rows := in.Rows
	outDim := in.Cols
	for i := 0; i < k; i++ {
		if w.layers[i].w != nil {
			outDim = w.layers[i].w.Rows
		}
	}
	if dst == nil || dst.Rows != rows || dst.Cols != outDim {
		dst = tensor.NewMatrix(rows, outDim)
	}
	if k == 0 || rows == 0 {
		copy(dst.Data, in.Data[:rows*outDim])
		return dst
	}
	release := false
	if s == nil {
		s = w.AcquireBatchScratch()
		release = true
	}
	s.pingBuf = grow(s.pingBuf, rows*w.maxDim)
	s.pongBuf = grow(s.pongBuf, rows*w.maxDim)
	x := in
	buf, alt := s.pingBuf, s.pongBuf
	front, back := &s.ping, &s.pong
	for i := 0; i < k; {
		l := &w.layers[i]
		next := i + 1
		// A ReLU right after a dense layer runs inside its kernel call.
		relu := l.w != nil && next < k && w.layers[next].kind == kindReLU
		if relu {
			next++
		}
		cols := x.Cols
		if l.w != nil {
			cols = l.w.Rows
		}
		target := dst
		if next < k {
			target = view(front, buf, rows, cols)
		}
		switch l.kind {
		case kindDense, kindDenseQuant:
			tensor.DenseSuffixInto(target, x, c, l.packed, relu)
			c = nil
		case kindReLU:
			for j, v := range x.Data {
				target.Data[j] = reluFn(v)
			}
		case kindTanh:
			for j, v := range x.Data {
				target.Data[j] = math.Tanh(v)
			}
		case kindSigmoid:
			for j, v := range x.Data {
				target.Data[j] = sigmoidFn(v)
			}
		default:
			panic(fmt.Sprintf("nn: batch infer of layer kind %d", l.kind))
		}
		x = target
		buf, alt = alt, buf
		front, back = back, front
		i = next
	}
	if release {
		w.ReleaseBatchScratch(s)
	}
	return dst
}
