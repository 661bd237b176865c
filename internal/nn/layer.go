// Package nn is a from-scratch neural-network library: dense layers,
// standard activations, classification losses, the Adam optimizer, a
// mini-batch trainer, FLOPs/parameter accounting, and binary weight
// serialization. It substitutes for the paper's PyTorch/TensorRT
// stack (see DESIGN.md §2) — training here is real gradient descent, so
// capacity and specialization effects emerge from optimization rather than
// being scripted.
//
// Layers and Network.Forward work on single samples (tensor.Vector).
// Everything that runs many samples runs them as matrices on
// tensor.DenseInto's packed kernel: Train backpropagates each
// mini-batch as matrix products (bit-identical to accumulating the
// samples' gradients one at a time), MeanLoss and Accuracy use the same
// batched forward, and frozen Weights serve batches through InferBatch.
package nn

import (
	"fmt"
	"math"

	"anole/internal/tensor"
	"anole/internal/xrand"
)

// Layer is one differentiable stage of a Network. Forward consumes an
// input vector and returns the layer output. Gradients are not a layer
// method: Train backpropagates whole mini-batches through the layer
// stack as matrix products and accumulates into each layer's gradient
// buffers (Params).
//
// Forward writes into a layer-owned output buffer, so a Network is not
// safe for concurrent use; clone per goroutine instead (see Network.Clone).
type Layer interface {
	// Forward computes the layer output for in.
	Forward(in tensor.Vector) tensor.Vector
	// Params returns the layer's trainable parameter/gradient pairs
	// (empty for stateless layers).
	Params() []Param
	// InDim and OutDim report the layer's fixed dimensions; stateless
	// activations return (0, 0) meaning "any".
	InDim() int
	OutDim() int
	// Clone returns a deep copy sharing no state.
	Clone() Layer
	// kind tags the layer for serialization.
	kind() layerKind
}

// Param pairs a parameter buffer with its gradient accumulator. Both
// slices alias layer-owned storage.
type Param struct {
	Value tensor.Vector
	Grad  tensor.Vector
}

type layerKind uint8

const (
	kindDense layerKind = iota + 1
	kindReLU
	kindTanh
	kindSigmoid
	kindDenseQuant
)

// Dense is a fully connected layer computing W·x + b.
type Dense struct {
	W *tensor.Matrix // out × in
	B tensor.Vector  // out

	// quantBits is the post-training quantization bit width (0 = full
	// precision); it selects integer storage during serialization.
	quantBits int

	gradW *tensor.Matrix
	gradB tensor.Vector

	out tensor.Vector // Forward's output buffer
}

// NewDense returns a Dense layer with He-initialized weights drawn from
// rng, appropriate for the ReLU networks this repository trains.
func NewDense(inDim, outDim int, rng *xrand.RNG) *Dense {
	d := &Dense{
		W:     tensor.NewMatrix(outDim, inDim),
		B:     tensor.NewVector(outDim),
		gradW: tensor.NewMatrix(outDim, inDim),
		gradB: tensor.NewVector(outDim),
	}
	std := math.Sqrt(2 / float64(max(inDim, 1)))
	for i := range d.W.Data {
		d.W.Data[i] = rng.NormMS(0, std)
	}
	return d
}

// Forward implements Layer.
func (d *Dense) Forward(in tensor.Vector) tensor.Vector {
	if len(in) != d.W.Cols {
		panic(fmt.Sprintf("nn: dense forward dim %d, want %d", len(in), d.W.Cols))
	}
	d.out = d.W.MulVec(d.out, in)
	d.out.AddScaled(1, d.B)
	return d.out
}

// Params implements Layer.
func (d *Dense) Params() []Param {
	return []Param{
		{Value: tensor.Vector(d.W.Data), Grad: tensor.Vector(d.gradW.Data)},
		{Value: d.B, Grad: d.gradB},
	}
}

// InDim implements Layer.
func (d *Dense) InDim() int { return d.W.Cols }

// OutDim implements Layer.
func (d *Dense) OutDim() int { return d.W.Rows }

// Clone implements Layer.
func (d *Dense) Clone() Layer {
	return &Dense{
		W:         d.W.Clone(),
		B:         d.B.Clone(),
		quantBits: d.quantBits,
		gradW:     tensor.NewMatrix(d.W.Rows, d.W.Cols),
		gradB:     tensor.NewVector(len(d.B)),
	}
}

func (d *Dense) kind() layerKind {
	if d.quantBits > 0 {
		return kindDenseQuant
	}
	return kindDense
}

// activation is the shared implementation of element-wise stateless layers.
type activation struct {
	fn    func(float64) float64
	deriv func(x, y float64) float64 // derivative given input x and output y
	tag   layerKind

	out tensor.Vector // Forward's output buffer
}

// reluFn and sigmoidFn are named so the frozen program's forward
// (inferBatchThrough) applies exactly the activations the trainable
// layers do.
func reluFn(x float64) float64 {
	if x > 0 {
		return x
	}
	return 0
}

func sigmoidFn(x float64) float64 { return 1 / (1 + math.Exp(-x)) }

// NewReLU returns a rectified-linear activation layer.
func NewReLU() Layer {
	return &activation{
		fn: reluFn,
		deriv: func(x, _ float64) float64 {
			if x > 0 {
				return 1
			}
			return 0
		},
		tag: kindReLU,
	}
}

// NewTanh returns a hyperbolic-tangent activation layer.
func NewTanh() Layer {
	return &activation{
		fn:    math.Tanh,
		deriv: func(_, y float64) float64 { return 1 - float64(y*y) },
		tag:   kindTanh,
	}
}

// NewSigmoid returns a logistic activation layer.
func NewSigmoid() Layer {
	return &activation{
		fn:    sigmoidFn,
		deriv: func(_, y float64) float64 { return y * (1 - y) },
		tag:   kindSigmoid,
	}
}

func (a *activation) Forward(in tensor.Vector) tensor.Vector {
	if len(a.out) != len(in) {
		a.out = tensor.NewVector(len(in))
	}
	for i, x := range in {
		a.out[i] = a.fn(x)
	}
	return a.out
}

func (a *activation) Params() []Param { return nil }
func (a *activation) InDim() int      { return 0 }
func (a *activation) OutDim() int     { return 0 }

func (a *activation) Clone() Layer {
	return &activation{fn: a.fn, deriv: a.deriv, tag: a.tag}
}

func (a *activation) kind() layerKind { return a.tag }

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
