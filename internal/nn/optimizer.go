package nn

import (
	"math"

	"anole/internal/tensor"
)

// Optimizer updates network parameters from their gradients.
type Optimizer interface {
	// Step applies one update to params, treating each Param's Grad as
	// the mini-batch-mean gradient.
	Step(params []Param)
	// Reset clears optimizer state (momentum buffers etc.).
	Reset()
	// Name identifies the optimizer for logs.
	Name() string
}

// Adam is the Adam optimizer (Kingma & Ba) with bias correction. Its
// update is tensor.AdamStep's, four elements at a time where the CPU has
// AVX2.
type Adam struct {
	LR          float64
	Beta1       float64
	Beta2       float64
	Eps         float64
	WeightDecay float64

	m, v []tensor.Vector
	t    int
}

// NewAdam returns an Adam optimizer with standard betas (0.9, 0.999).
func NewAdam(lr float64) *Adam {
	return &Adam{LR: lr, Beta1: 0.9, Beta2: 0.999, Eps: 1e-8}
}

// Step implements Optimizer.
func (o *Adam) Step(params []Param) {
	if len(o.m) != len(params) {
		o.m = make([]tensor.Vector, len(params))
		o.v = make([]tensor.Vector, len(params))
		for i, p := range params {
			o.m[i] = tensor.NewVector(len(p.Value))
			o.v[i] = tensor.NewVector(len(p.Value))
		}
		o.t = 0
	}
	o.t++
	step := tensor.AdamStep{
		LR: o.LR, Beta1: o.Beta1, Beta2: o.Beta2, Eps: o.Eps, WeightDecay: o.WeightDecay,
		BC1: 1 - math.Pow(o.Beta1, float64(o.t)),
		BC2: 1 - math.Pow(o.Beta2, float64(o.t)),
	}
	for i, p := range params {
		step.Update(p.Value, p.Grad, o.m[i], o.v[i])
	}
}

// Reset implements Optimizer.
func (o *Adam) Reset() {
	o.m, o.v = nil, nil
	o.t = 0
}

// Name implements Optimizer.
func (o *Adam) Name() string { return "adam" }
