package nn

import (
	"math"
	"testing"

	"anole/internal/tensor"
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
