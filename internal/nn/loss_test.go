package nn

import (
	"math"
	"testing"

	"anole/internal/tensor"
	"anole/internal/xrand"
)

// TestBCEWithLogitsMatchesTwoExpFormula pins BCEWithLogits.Eval, which
// reuses exp(-|o|) for the sigmoid when o >= 0, bit for bit against the
// formula that evaluates exp(-o) separately, at signed zeros,
// subnormals, tiny, moderate, saturating and overflowing logits,
// infinities and NaN, each against targets 0, 1 and 0.5.
func TestBCEWithLogitsMatchesTwoExpFormula(t *testing.T) {
	var outs []float64
	for _, v := range []float64{0, math.SmallestNonzeroFloat64, 1e-310, 1e-300, 1, 40, 750, math.Inf(1)} {
		outs = append(outs, v, -v)
	}
	outs = append(outs, math.NaN())
	for _, tgt := range []float64{0, 1, 0.5} {
		output := tensor.Vector(outs)
		target := make(tensor.Vector, len(outs))
		for i := range target {
			target[i] = tgt
		}
		grad := make(tensor.Vector, len(outs))
		loss := NewBCEWithLogits().Eval(output, target, grad)

		var wantLoss float64
		n := float64(len(outs))
		for i, o := range outs {
			wantLoss += math.Max(o, 0) - o*tgt + math.Log1p(math.Exp(-math.Abs(o)))
			s := 1 / (1 + math.Exp(-o))
			if want := (s - tgt) / n; math.Float64bits(grad[i]) != math.Float64bits(want) {
				t.Errorf("target %v, o=%v: grad %v (%#x), want %v (%#x)",
					tgt, o, grad[i], math.Float64bits(grad[i]), want, math.Float64bits(want))
			}
		}
		wantLoss /= n
		if math.Float64bits(loss) != math.Float64bits(wantLoss) {
			t.Errorf("target %v: loss %v, want %v", tgt, loss, wantLoss)
		}
	}
	// Each logit alone, so one non-finite element cannot mask another's
	// loss term.
	for _, o := range outs {
		for _, tgt := range []float64{0, 1} {
			grad := make(tensor.Vector, 1)
			loss := NewBCEWithLogits().Eval(tensor.Vector{o}, tensor.Vector{tgt}, grad)
			want := math.Max(o, 0) - o*tgt + math.Log1p(math.Exp(-math.Abs(o)))
			if math.Float64bits(loss) != math.Float64bits(want) {
				t.Errorf("o=%v target %v: loss %v, want %v", o, tgt, loss, want)
			}
			if wantG := 1/(1+math.Exp(-o)) - tgt; math.Float64bits(grad[0]) != math.Float64bits(wantG) {
				t.Errorf("o=%v target %v: grad %v, want %v", o, tgt, grad[0], wantG)
			}
		}
	}
}

// TestGradMatchesEval pins every loss's Grad bit for bit against the
// gradient Eval writes, on outputs and targets drawn from signed zeros,
// infinities, NaN, ±1e300 and ±1, first in every pair of two-element
// vectors, then in a random sweep of five-element vectors that mixes
// those values with normal draws. Both gradient buffers start filled
// with different garbage, so neither form can lean on stale contents.
func TestGradMatchesEval(t *testing.T) {
	special := []float64{0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(), 1e300, -1e300, 1, -1}
	var cases [][2]tensor.Vector
	for _, a := range special {
		for _, b := range special {
			for _, tgt := range [][]float64{{1, 0}, {0.5, 0.5}, {a, b}} {
				cases = append(cases, [2]tensor.Vector{{a, b}, tgt})
			}
		}
	}
	rng := xrand.New(76)
	pick := func() float64 {
		if rng.Float64() < 0.3 {
			return special[rng.Intn(len(special))]
		}
		return 5 * rng.Norm()
	}
	for i := 0; i < 2000; i++ {
		out, tgt := tensor.NewVector(5), tensor.NewVector(5)
		for j := range out {
			out[j] = pick()
			tgt[j] = float64(rng.Intn(2))
			if i%4 == 0 {
				tgt[j] = pick()
			}
		}
		cases = append(cases, [2]tensor.Vector{out, tgt})
	}
	for _, loss := range []Loss{NewSoftmaxCrossEntropy(), NewBCEWithLogits()} {
		for _, c := range cases {
			out, tgt := c[0], c[1]
			want, got := tensor.NewVector(len(out)), tensor.NewVector(len(out))
			want.Fill(-7)
			got.Fill(3)
			loss.Eval(out, tgt, want)
			loss.Grad(out, tgt, got)
			if !sameBits(got, want) {
				t.Fatalf("%s output %v target %v: Grad %v, Eval's gradient %v", loss.Name(), out, tgt, got, want)
			}
		}
	}
}

// TestReLUGradMatchesBranch pins the masked ReLU backward against the
// branch form g·d, d = 1 if out > 0 else 0, over outputs at NaN, ±0,
// subnormals, ±1 and ±Inf and gradients at the same values: the mask
// must keep 0·NaN, 0·Inf and a negative g's −0 exactly as the multiply
// by d does.
func TestReLUGradMatchesBranch(t *testing.T) {
	sub := math.SmallestNonzeroFloat64
	values := []float64{math.NaN(), 0, math.Copysign(0, -1), sub, -sub, 1e-310, -1e-310, 1, -1, math.Inf(1), math.Inf(-1), 2.5}
	for _, out := range values {
		for _, g := range values {
			d := 0.0
			if out > 0 {
				d = 1
			}
			want := g * d
			if got := reluGrad(g, out); math.Float64bits(got) != math.Float64bits(want) {
				t.Errorf("g=%v out=%v: %v (%#x), branch form %v (%#x)", g, out, got, math.Float64bits(got), want, math.Float64bits(want))
			}
		}
	}
}
