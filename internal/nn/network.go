package nn

import (
	"fmt"

	"anole/internal/tensor"
	"anole/internal/xrand"
)

// Network is an ordered stack of layers trained end to end (Train). Its
// layers hold Forward's output buffers and the gradient accumulators, so
// a Network must not be shared across goroutines; use Clone to obtain
// replicas that share no state.
type Network struct {
	layers []Layer
}

// NewNetwork builds a network from layers, validating that adjacent fixed
// dimensions agree.
func NewNetwork(layers ...Layer) (*Network, error) {
	lastOut := 0
	for i, l := range layers {
		in := l.InDim()
		if in != 0 && lastOut != 0 && in != lastOut {
			return nil, fmt.Errorf("nn: layer %d expects input dim %d but previous layer outputs %d", i, in, lastOut)
		}
		if out := l.OutDim(); out != 0 {
			lastOut = out
		}
	}
	return &Network{layers: layers}, nil
}

// MustNetwork is NewNetwork that panics on error, for statically known
// architectures.
func MustNetwork(layers ...Layer) *Network {
	n, err := NewNetwork(layers...)
	if err != nil {
		panic(err)
	}
	return n
}

// MLPConfig describes a plain multi-layer perceptron: InDim inputs, one
// hidden layer per entry of Hidden (each followed by an activation), and a
// linear output layer of OutDim units.
type MLPConfig struct {
	InDim  int
	Hidden []int
	OutDim int
	// Activation constructs the non-linearity between dense layers;
	// nil defaults to NewReLU.
	Activation func() Layer
}

// NewMLP constructs the MLP described by cfg with weights drawn from rng.
func NewMLP(cfg MLPConfig, rng *xrand.RNG) *Network {
	act := cfg.Activation
	if act == nil {
		act = NewReLU
	}
	var layers []Layer
	in := cfg.InDim
	for _, h := range cfg.Hidden {
		layers = append(layers, NewDense(in, h, rng), act())
		in = h
	}
	layers = append(layers, NewDense(in, cfg.OutDim, rng))
	return MustNetwork(layers...)
}

// Forward runs the network on in and returns the output activation. The
// returned vector aliases internal state; copy it if it must survive the
// next Forward call.
func (n *Network) Forward(in tensor.Vector) tensor.Vector {
	x := in
	for _, l := range n.layers {
		x = l.Forward(x)
	}
	return x
}

// ForwardThrough runs the first k layers only, returning that intermediate
// activation. Used to extract embeddings from a trained classifier (the
// paper's M_scene hidden features).
func (n *Network) ForwardThrough(k int, in tensor.Vector) tensor.Vector {
	if k < 0 || k > len(n.layers) {
		panic(fmt.Sprintf("nn: ForwardThrough(%d) with %d layers", k, len(n.layers)))
	}
	x := in
	for _, l := range n.layers[:k] {
		x = l.Forward(x)
	}
	return x
}

// Params returns all trainable parameter/gradient pairs, outermost layer
// first.
func (n *Network) Params() []Param {
	var params []Param
	for _, l := range n.layers {
		params = append(params, l.Params()...)
	}
	return params
}

// Clone returns a deep copy of the network (weights copied, caches fresh).
func (n *Network) Clone() *Network {
	layers := make([]Layer, len(n.layers))
	for i, l := range n.layers {
		layers[i] = l.Clone()
	}
	return &Network{layers: layers}
}

// CopyWeightsFrom overwrites this network's parameters with src's. The
// architectures must match.
func (n *Network) CopyWeightsFrom(src *Network) error {
	dst := n.Params()
	from := src.Params()
	if len(dst) != len(from) {
		return fmt.Errorf("nn: parameter group count mismatch %d vs %d", len(dst), len(from))
	}
	for i := range dst {
		if len(dst[i].Value) != len(from[i].Value) {
			return fmt.Errorf("nn: parameter group %d size mismatch %d vs %d", i, len(dst[i].Value), len(from[i].Value))
		}
		copy(dst[i].Value, from[i].Value)
	}
	return nil
}

// NumLayers returns the number of layers in the stack.
func (n *Network) NumLayers() int { return len(n.layers) }

// InDim returns the input dimension of the first dense layer (0 if none).
func (n *Network) InDim() int {
	for _, l := range n.layers {
		if d := l.InDim(); d != 0 {
			return d
		}
	}
	return 0
}

// OutDim returns the output dimension of the last dense layer (0 if none).
func (n *Network) OutDim() int {
	for i := len(n.layers) - 1; i >= 0; i-- {
		if d := n.layers[i].OutDim(); d != 0 {
			return d
		}
	}
	return 0
}

// ParamCount returns the total number of trainable scalars.
func (n *Network) ParamCount() int {
	total := 0
	for _, p := range n.Params() {
		total += len(p.Value)
	}
	return total
}

// FLOPs estimates the floating-point operations of one forward pass:
// 2·in·out + out per dense layer (multiply-accumulate plus bias) plus one
// op per activation element. This is the figure reported in the Table II
// analogue.
func (n *Network) FLOPs() int64 {
	var total int64
	lastDim := int64(0)
	for _, l := range n.layers {
		switch d := l.(type) {
		case *Dense:
			in, out := int64(d.W.Cols), int64(d.W.Rows)
			total += 2*in*out + out
			lastDim = out
		default:
			total += lastDim
		}
	}
	return total
}

// WeightBytes returns the serialized parameter size in bytes — float64
// storage for full-precision networks, integer storage for quantized ones
// — the analogue of the paper's model weight sizes in Table II.
func (n *Network) WeightBytes() int64 {
	if q, ok := n.quantizedWeightBytes(); ok {
		return q
	}
	return int64(n.ParamCount()) * 8
}
