package tensor

import (
	"fmt"
	"math"
	"testing"

	"anole/internal/xrand"
)

// adamEdgeValues are the inputs on which a vector and a scalar update
// could part ways: NaN, ±Inf, ±0, subnormals and the extremes of the
// normal range.
var adamEdgeValues = []float64{
	math.NaN(), math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1),
	5e-324, -2.5e-310, math.SmallestNonzeroFloat64 * 3, 2.2250738585072014e-308,
	math.MaxFloat64, -math.MaxFloat64, 1, -0.5, 3e-5,
}

// adamSteps are the step scalars the tests sweep: the first step and a
// later one of the default Adam, and one with weight decay.
func adamSteps() []AdamStep {
	step := func(lr, wd float64, t int) AdamStep {
		return AdamStep{LR: lr, Beta1: 0.9, Beta2: 0.999, Eps: 1e-8, WeightDecay: wd,
			BC1: 1 - math.Pow(0.9, float64(t)), BC2: 1 - math.Pow(0.999, float64(t))}
	}
	return []AdamStep{step(0.01, 0, 1), step(0.05, 0, 7), step(0.01, 1e-3, 3), step(0.2, 0.5, 40)}
}

// checkAdamUpdate runs Update (the AVX2 loop and its Go tail where the
// CPU has AVX2) and the Go loop alone on copies of the same operands and
// compares value, m and v bit for bit, NaN matching NaN.
func checkAdamUpdate(t *testing.T, s AdamStep, value, grad, m, v []float64, label string) {
	t.Helper()
	cp := func(x []float64) Vector { return append(Vector(nil), x...) }
	gv, gm, gvv := cp(value), cp(m), cp(v)
	wv, wm, wvv := cp(value), cp(m), cp(v)
	s.Update(gv, cp(grad), gm, gvv)
	s.updateGeneric(wv, cp(grad), wm, wvv)
	for name, pair := range map[string][2]Vector{"value": {gv, wv}, "m": {gm, wm}, "v": {gvv, wvv}} {
		for i := range pair[1] {
			if !sameBits(pair[0][i], pair[1][i]) {
				t.Fatalf("%s: %s[%d] = %v (%#x), Go loop %v (%#x)", label, name, i,
					pair[0][i], math.Float64bits(pair[0][i]), pair[1][i], math.Float64bits(pair[1][i]))
			}
		}
	}
}

// TestAdamUpdateMatchesGoLoop checks the vectorized Adam update against
// the Go loop at every length 0–9 (whole vectors, tails and both), with
// every edge value in every lane of every operand, and on a random
// sweep of longer vectors with edge values mixed in.
func TestAdamUpdateMatchesGoLoop(t *testing.T) {
	if !haveAVX2 {
		t.Log("no AVX2: Update runs the Go loop alone")
	}
	rng := xrand.New(29)
	rand := func(n int) []float64 { return randMatrix(rng, 1, n).Data }
	for si, s := range adamSteps() {
		for n := 0; n <= 9; n++ {
			checkAdamUpdate(t, s, rand(n), rand(n), rand(n), rand(n), fmt.Sprintf("step %d n=%d", si, n))
			for pos := 0; pos < n; pos++ {
				for _, e := range adamEdgeValues {
					for op := 0; op < 4; op++ {
						ops := [4][]float64{rand(n), rand(n), rand(n), rand(n)}
						ops[op][pos] = e
						checkAdamUpdate(t, s, ops[0], ops[1], ops[2], ops[3],
							fmt.Sprintf("step %d n=%d operand %d lane %d = %v", si, n, op, pos, e))
					}
				}
			}
		}
		for trial := 0; trial < 200; trial++ {
			n := rng.Intn(70)
			ops := [4][]float64{rand(n), rand(n), rand(n), rand(n)}
			for _, op := range ops {
				for i := range op {
					if rng.Intn(8) == 0 {
						op[i] = adamEdgeValues[rng.Intn(len(adamEdgeValues))]
					} else {
						op[i] *= math.Pow(10, float64(rng.Intn(20)-10))
					}
				}
			}
			checkAdamUpdate(t, s, ops[0], ops[1], ops[2], ops[3], fmt.Sprintf("step %d trial %d", si, trial))
		}
	}
}

// TestAdamUpdatePanicsOnLengths pins the shape check.
func TestAdamUpdatePanicsOnLengths(t *testing.T) {
	s := adamSteps()[0]
	mustPanic(t, "short grad", func() { s.Update(NewVector(4), NewVector(3), NewVector(4), NewVector(4)) })
	mustPanic(t, "short v", func() { s.Update(NewVector(4), NewVector(4), NewVector(4), NewVector(2)) })
}
