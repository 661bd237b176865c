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

// SGD is stochastic gradient descent with classical momentum and optional
// L2 weight decay.
type SGD struct {
	LR          float64
	Momentum    float64
	WeightDecay float64

	velocity []tensor.Vector
}

// NewSGD returns an SGD optimizer with the given learning rate and
// momentum.
func NewSGD(lr, momentum float64) *SGD {
	return &SGD{LR: lr, Momentum: momentum}
}

// Step implements Optimizer.
func (o *SGD) Step(params []Param) {
	if len(o.velocity) != len(params) {
		o.velocity = make([]tensor.Vector, len(params))
		for i, p := range params {
			o.velocity[i] = tensor.NewVector(len(p.Value))
		}
	}
	for i, p := range params {
		v := o.velocity[i]
		for j := range p.Value {
			g := p.Grad[j] + float64(o.WeightDecay*p.Value[j])
			v[j] = float64(o.Momentum*v[j]) - float64(o.LR*g)
			p.Value[j] += v[j]
		}
	}
}

// Reset implements Optimizer.
func (o *SGD) Reset() { o.velocity = nil }

// Name implements Optimizer.
func (o *SGD) Name() string { return "sgd" }

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
