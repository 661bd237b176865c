package tensor

import (
	"fmt"
	"math"
)

// AdamStep holds the scalars of one Adam update (Kingma & Ba): the
// learning rate, the decay rates β₁ and β₂, ε, the L2 weight decay, and
// the step's bias corrections BC1 = 1−β₁ᵗ and BC2 = 1−β₂ᵗ.
type AdamStep struct {
	LR, Beta1, Beta2, Eps, WeightDecay float64
	BC1, BC2                           float64
}

// Update applies the step to value in place from grad, advancing the
// first and second moment estimates m and v; all four must have one
// length. Per element, in this order:
//
//	g = grad + wd·value
//	m = β₁·m + (1−β₁)·g
//	v = β₂·v + (1−β₂)·g·g
//	value −= lr·(m/BC1) / (√(v/BC2) + ε)
//
// Every product is rounded before the sum it feeds, so no platform fuses
// a multiply-add. On amd64 with AVX2 the elements go four at a time
// (adam_amd64.s, the same operations in the same order) and the Go loop
// takes the tail; the results are the same bits either way.
func (s AdamStep) Update(value, grad, m, v Vector) {
	n := len(value)
	if len(grad) != n || len(m) != n || len(v) != n {
		panic(fmt.Sprintf("tensor: Adam lengths %d, %d, %d, %d", n, len(grad), len(m), len(v)))
	}
	done := 0
	if haveAVX2 {
		done = n &^ 3
		adamAVX2(value[:done], grad[:done], m[:done], v[:done],
			s.WeightDecay, s.Beta1, 1-s.Beta1, s.Beta2, 1-s.Beta2, s.BC1, s.BC2, s.LR, s.Eps)
	}
	s.updateGeneric(value[done:], grad[done:], m[done:], v[done:])
}

// updateGeneric is Update's Go loop.
func (s AdamStep) updateGeneric(value, grad, m, v Vector) {
	c1, c2 := 1-s.Beta1, 1-s.Beta2
	grad, m, v = grad[:len(value)], m[:len(value)], v[:len(value)]
	for j := range value {
		g := grad[j] + float64(s.WeightDecay*value[j])
		mj := float64(s.Beta1*m[j]) + float64(c1*g)
		vj := float64(s.Beta2*v[j]) + float64(c2*g*g)
		m[j], v[j] = mj, vj
		value[j] -= s.LR * (mj / s.BC1) / (math.Sqrt(vj/s.BC2) + s.Eps)
	}
}
