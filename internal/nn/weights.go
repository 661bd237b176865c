package nn

import (
	"fmt"
	"sync"

	"anole/internal/tensor"
)

// Weights is the frozen, execution-only form of a trained Network: an
// ordered program of dense transforms and activations whose parameters
// never change after construction. A Weights holds no gradients and no
// cached activations, so one instance is safe to share across any number
// of goroutines — every stream, worker, and cache entry can run the same
// resident copy. All mutable per-execution state lives in a Scratch.
//
// Weights is the unit the rest of the system moves around: the model
// cache sizes entries by SizeBytes, the repo serializes it, and
// quantization produces just another Weights (see Quantize).
type Weights struct {
	layers []wlayer

	inDim, outDim int
	maxDim        int // widest activation, sizes Scratch buffers
	flops         int64
	paramCount    int

	// pool recycles Scratch instances for callers that pass nil; it is a
	// pointer so Weights values are never copied with a live pool.
	pool *sync.Pool
}

// wlayer is one frozen layer: a dense transform (w != nil) or an
// element-wise activation (fn != nil).
type wlayer struct {
	kind      layerKind
	w         *tensor.Matrix // out × in, dense only
	b         tensor.Vector
	quantBits int
	fn        func(float64) float64 // activation only
	// packed is w and b laid out for the batched kernel
	// (tensor.DenseInto); newWeights builds it, so it always matches w
	// and b.
	packed *tensor.Packed
}

// Inferer is the one interface every executable model form satisfies:
// full-precision and quantized Weights alike run behind it.
type Inferer interface {
	Infer(dst, in tensor.Vector, s *Scratch) tensor.Vector
	InDim() int
	OutDim() int
}

var _ Inferer = (*Weights)(nil)

// Freeze compiles the network's current parameters into an immutable
// Weights program. The parameters are deep-copied, so later training on
// n does not affect the frozen copy.
func (n *Network) Freeze() *Weights {
	ls := make([]wlayer, len(n.layers))
	for i, l := range n.layers {
		switch t := l.(type) {
		case *Dense:
			ls[i] = wlayer{kind: t.kind(), w: t.W.Clone(), b: t.B.Clone(), quantBits: t.quantBits}
		case *activation:
			ls[i] = wlayer{kind: t.tag, fn: t.fn}
		default:
			panic(fmt.Sprintf("nn: cannot freeze layer type %T", l))
		}
	}
	return newWeights(ls)
}

// Freeze is the free-function form of (*Network).Freeze.
func Freeze(n *Network) *Weights { return n.Freeze() }

// newWeights validates the layer program, packs every dense layer for
// the batched kernel and precomputes the static accounting (dims,
// FLOPs, parameter count, scratch sizing).
func newWeights(ls []wlayer) *Weights {
	w := &Weights{layers: ls}
	lastOut := 0
	for i := range ls {
		l := &ls[i]
		if l.w == nil {
			w.flops += int64(lastOut)
			continue
		}
		l.packed = tensor.PackDense(l.w, l.b)
		in, out := l.w.Cols, l.w.Rows
		if lastOut != 0 && in != lastOut {
			panic(fmt.Sprintf("nn: frozen layer %d expects input dim %d but previous layer outputs %d", i, in, lastOut))
		}
		if w.inDim == 0 {
			w.inDim = in
		}
		w.flops += 2*int64(in)*int64(out) + int64(out)
		w.paramCount += len(l.w.Data) + len(l.b)
		lastOut = out
	}
	w.outDim = lastOut
	w.maxDim = w.inDim
	for i := range ls {
		if ls[i].w != nil && ls[i].w.Rows > w.maxDim {
			w.maxDim = ls[i].w.Rows
		}
	}
	dim := w.maxDim
	w.pool = &sync.Pool{New: func() any { return newScratch(dim) }}
	return w
}

// cloneLayers returns a copy of the layer program sharing every
// parameter; the copy-on-write transforms below replace some layers'
// parameters in it and compile the result with newWeights, which packs
// every dense layer afresh.
func (w *Weights) cloneLayers() []wlayer {
	ls := make([]wlayer, len(w.layers))
	copy(ls, w.layers)
	return ls
}

// InDim returns the input dimension of the first dense layer (0 if none).
func (w *Weights) InDim() int { return w.inDim }

// OutDim returns the output dimension of the last dense layer (0 if none).
func (w *Weights) OutDim() int { return w.outDim }

// NumLayers returns the number of layers in the frozen program.
func (w *Weights) NumLayers() int { return len(w.layers) }

// ParamCount returns the total number of scalar parameters.
func (w *Weights) ParamCount() int { return w.paramCount }

// FLOPs estimates the floating-point operations of one forward pass,
// using the same accounting as (*Network).FLOPs.
func (w *Weights) FLOPs() int64 { return w.flops }

// QuantBits returns the bit width the dense layers were quantized to, or
// 0 for full precision (first dense layer's width for mixed precision).
func (w *Weights) QuantBits() int {
	for i := range w.layers {
		if w.layers[i].w != nil {
			return w.layers[i].quantBits
		}
	}
	return 0
}

// WeightBytes returns the parameter payload size in bytes: 8 per scalar
// at full precision, integer storage plus per-tensor scales when
// quantized — the Table II model-size analogue.
func (w *Weights) WeightBytes() int64 {
	bits := w.QuantBits()
	if bits == 0 {
		return int64(w.paramCount) * 8
	}
	bytesPer := int64((bits + 7) / 8)
	var total int64
	for i := range w.layers {
		l := &w.layers[i]
		if l.w == nil {
			continue
		}
		total += int64(len(l.w.Data)+len(l.b))*bytesPer + 16 // two scales
	}
	return total
}

// Scratch is the per-execution working set for running a Weights program:
// two ping-pong activation buffers plus caller-usable input/output
// buffers, all preallocated to the widest layer. A Scratch belongs to one
// goroutine at a time; acquire from the owning Weights (AcquireScratch)
// or pass nil to Infer and let it borrow one from the pool.
type Scratch struct {
	ping, pong tensor.Vector
	in, out    tensor.Vector
}

func newScratch(maxDim int) *Scratch {
	return &Scratch{
		ping: tensor.NewVector(maxDim),
		pong: tensor.NewVector(maxDim),
		in:   tensor.NewVector(maxDim),
		out:  tensor.NewVector(maxDim),
	}
}

// In returns the scratch's input staging buffer sliced to n elements,
// for callers assembling model inputs without allocating per call. The
// buffer is distinct from the ping-pong and output buffers, so it may be
// passed to Infer on the same Scratch.
func (s *Scratch) In(n int) tensor.Vector { return s.in[:n] }

// Out returns the scratch's output buffer sliced to n elements, suitable
// as Infer's dst while the same Scratch serves the intermediate layers.
func (s *Scratch) Out(n int) tensor.Vector { return s.out[:n] }

// AcquireScratch borrows a scratch sized for this program from the pool.
// Pair with ReleaseScratch; holding one across many Infer calls (e.g. a
// per-frame cell loop) keeps the steady state allocation-free.
func (w *Weights) AcquireScratch() *Scratch {
	return w.pool.Get().(*Scratch)
}

// ReleaseScratch returns s to the pool. s must not be used afterwards.
func (w *Weights) ReleaseScratch(s *Scratch) {
	if s != nil {
		w.pool.Put(s)
	}
}

// Infer runs the full program on in and writes the output into dst,
// allocating only when dst is nil or mis-sized. dst must not alias in.
// s supplies the intermediate activation buffers; pass nil to borrow one
// from the program's pool. The returned vector is dst: caller-owned, and
// never aliased by later Infer calls.
func (w *Weights) Infer(dst, in tensor.Vector, s *Scratch) tensor.Vector {
	return w.inferThrough(len(w.layers), dst, in, s)
}

// InferThrough runs the first k layers only, the frozen counterpart of
// (*Network).ForwardThrough used to extract embeddings.
func (w *Weights) InferThrough(k int, dst, in tensor.Vector, s *Scratch) tensor.Vector {
	if k < 0 || k > len(w.layers) {
		panic(fmt.Sprintf("nn: InferThrough(%d) with %d layers", k, len(w.layers)))
	}
	return w.inferThrough(k, dst, in, s)
}

func (w *Weights) inferThrough(k int, dst, in tensor.Vector, s *Scratch) tensor.Vector {
	if w.inDim > 0 && len(in) != w.inDim {
		panic(fmt.Sprintf("nn: infer input dim %d, want %d", len(in), w.inDim))
	}
	outDim := len(in)
	for i := 0; i < k; i++ {
		if w.layers[i].w != nil {
			outDim = w.layers[i].w.Rows
		}
	}
	if len(dst) != outDim {
		dst = tensor.NewVector(outDim)
	}
	if k == 0 {
		copy(dst, in)
		return dst
	}
	release := false
	if s == nil {
		s = w.AcquireScratch()
		release = true
	}
	x := in
	buf, alt := s.ping, s.pong
	for i := 0; i < k; i++ {
		l := &w.layers[i]
		last := i == k-1
		var target tensor.Vector
		if l.w != nil {
			if last {
				target = dst
			} else {
				target = buf[:l.w.Rows]
			}
			l.w.MulVec(target, x)
			target.AddScaled(1, l.b)
		} else {
			if last {
				target = dst
			} else {
				target = buf[:len(x)]
			}
			for j, v := range x {
				target[j] = l.fn(v)
			}
		}
		x = target
		buf, alt = alt, buf
	}
	if release {
		w.ReleaseScratch(s)
	}
	return dst
}

// Quantize returns a new Weights with every dense layer's parameters
// snapped to a symmetric integer grid of the given bit width (2..16).
// The receiver is unmodified; the result is an ordinary Weights — same
// Infer interface, smaller serialized form.
func (w *Weights) Quantize(bits int) (*Weights, error) {
	if bits < 2 || bits > 16 {
		return nil, fmt.Errorf("nn: quantization bits %d outside [2,16]", bits)
	}
	ls := w.cloneLayers()
	for i := range ls {
		l := &ls[i]
		if l.w == nil {
			continue
		}
		m, b := l.w.Clone(), l.b.Clone()
		quantizeSlice(m.Data, bits)
		quantizeSlice(b, bits)
		l.w, l.b, l.quantBits, l.kind = m, b, bits, kindDenseQuant
	}
	return newWeights(ls), nil
}

// ScaleFinalDense returns a copy of w whose last dense layer (weights and
// bias) is multiplied by alpha — the copy-on-write form of folding a
// temperature into a classifier head. Quantized programs are refused:
// scaling would move the parameters off their integer grid.
func (w *Weights) ScaleFinalDense(alpha float64) (*Weights, error) {
	idx := -1
	for i := len(w.layers) - 1; i >= 0; i-- {
		if w.layers[i].w != nil {
			idx = i
			break
		}
	}
	if idx < 0 {
		return nil, fmt.Errorf("nn: no dense layer to scale")
	}
	if w.layers[idx].quantBits > 0 {
		return nil, fmt.Errorf("nn: cannot scale a quantized dense layer")
	}
	ls := w.cloneLayers()
	m, b := ls[idx].w.Clone(), ls[idx].b.Clone()
	m.Scale(alpha)
	b.Scale(alpha)
	ls[idx].w, ls[idx].b = m, b
	return newWeights(ls), nil
}

// Thaw reconstructs a trainable Network from the frozen program, with
// fresh gradient buffers and deep-copied parameters. Used to fine-tune a
// deployed model without mutating the shared frozen copy.
func (w *Weights) Thaw() *Network {
	layers := make([]Layer, len(w.layers))
	for i := range w.layers {
		l := &w.layers[i]
		switch l.kind {
		case kindDense, kindDenseQuant:
			layers[i] = &Dense{
				W:         l.w.Clone(),
				B:         l.b.Clone(),
				quantBits: l.quantBits,
				gradW:     tensor.NewMatrix(l.w.Rows, l.w.Cols),
				gradB:     tensor.NewVector(len(l.b)),
			}
		case kindReLU:
			layers[i] = NewReLU()
		case kindTanh:
			layers[i] = NewTanh()
		case kindSigmoid:
			layers[i] = NewSigmoid()
		default:
			panic(fmt.Sprintf("nn: cannot thaw layer kind %d", l.kind))
		}
	}
	return MustNetwork(layers...)
}
