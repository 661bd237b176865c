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
// row. One package-level pool serves every program: a scratch grows on
// demand to the widest program and the largest batch it has served and
// is then reused, so the steady state (same batch shape) performs no
// heap allocations. A BatchScratch belongs to one goroutine at a time;
// acquire one with AcquireBatchScratch or pass nil to InferBatch and let
// it borrow one from the pool.
type BatchScratch struct {
	maxDim int

	pingBuf, pongBuf, inBuf, outBuf []float64
	// Reused matrix headers re-sliced over the buffers per call, so
	// callers and the layer loop never allocate tensor.Matrix values.
	ping, pong, inM, outM tensor.Matrix
}

// batchPool recycles BatchScratch values across every program.
var batchPool = sync.Pool{New: func() any { return new(BatchScratch) }}

// fit widens s to serve a program whose widest layer is dim. Matrices
// already handed out keep their old buffers, which stay valid.
func (s *BatchScratch) fit(dim int) {
	if dim > s.maxDim {
		s.maxDim = dim
	}
}

// ensure grows the backing buffers to hold rows samples of the widest
// layer.
func (s *BatchScratch) ensure(rows int) {
	need := rows * s.maxDim
	if need <= cap(s.pingBuf) {
		return
	}
	s.pingBuf = make([]float64, need)
	s.pongBuf = make([]float64, need)
	s.inBuf = make([]float64, need)
	s.outBuf = make([]float64, need)
}

// view re-points one of the scratch's matrix headers at buf with the
// given shape.
func view(m *tensor.Matrix, buf []float64, rows, cols int) *tensor.Matrix {
	m.Rows, m.Cols, m.Data = rows, cols, buf[:rows*cols]
	return m
}

// In returns the scratch's input staging matrix shaped rows × cols, for
// callers assembling batch inputs (one sample per row) without
// allocating per call. cols must not exceed the owning program's widest
// layer. The matrix is distinct from the ping-pong and output buffers,
// so it may be passed to InferBatch on the same BatchScratch.
func (s *BatchScratch) In(rows, cols int) *tensor.Matrix {
	if cols > s.maxDim {
		panic(fmt.Sprintf("nn: batch staging width %d exceeds program max %d", cols, s.maxDim))
	}
	s.ensure(rows)
	return view(&s.inM, s.inBuf, rows, cols)
}

// Out returns the scratch's output matrix shaped rows × cols, suitable
// as InferBatch's dst while the same scratch serves the intermediate
// layers.
func (s *BatchScratch) Out(rows, cols int) *tensor.Matrix {
	if cols > s.maxDim {
		panic(fmt.Sprintf("nn: batch output width %d exceeds program max %d", cols, s.maxDim))
	}
	s.ensure(rows)
	return view(&s.outM, s.outBuf, rows, cols)
}

// AcquireBatchScratch borrows a batch scratch from the shared pool,
// widened to serve this program. Pair with ReleaseBatchScratch; holding
// one across many InferBatch calls keeps the steady-state batch path
// allocation-free.
func (w *Weights) AcquireBatchScratch() *BatchScratch {
	s := batchPool.Get().(*BatchScratch)
	s.fit(w.maxDim)
	return s
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
	return w.inferBatchThrough(len(w.layers), dst, in, s)
}

// InferBatchThrough runs the first k layers only over the batch, the
// batch form of InferThrough (embedding extraction).
func (w *Weights) InferBatchThrough(k int, dst, in *tensor.Matrix, s *BatchScratch) *tensor.Matrix {
	if k < 0 || k > len(w.layers) {
		panic(fmt.Sprintf("nn: InferBatchThrough(%d) with %d layers", k, len(w.layers)))
	}
	return w.inferBatchThrough(k, dst, in, s)
}

func (w *Weights) inferBatchThrough(k int, dst, in *tensor.Matrix, s *BatchScratch) *tensor.Matrix {
	if w.inDim > 0 && in.Cols != w.inDim {
		panic(fmt.Sprintf("nn: batch infer input dim %d, want %d", in.Cols, w.inDim))
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
	s.fit(w.maxDim)
	s.ensure(rows)
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
			tensor.DenseInto(target, x, l.packed, relu)
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
