package decision

import (
	"fmt"
	"math"

	"anole/internal/sampling"
	"anole/internal/tensor"
)

// Temperature scaling: softmax heads are systematically overconfident,
// which matters because the paper uses the suitability probability as a
// "does a fitting model even exist" signal (§IV-C). CalibrateTemperature
// finds the temperature T minimizing the negative log-likelihood of
// softmax(logits/T) on held-out samples, then folds 1/T into the head's
// final dense layer — mathematically identical to dividing logits at
// inference, so rankings (and therefore every accuracy result) are
// untouched while confidences become honest. Folding into the weights
// means the calibration survives serialization with no format change.
//
// CalibrateTemperature returns the temperature it applied.
func (m *Model) CalibrateTemperature(val []sampling.LabeledFrame) (float64, error) {
	if len(val) == 0 {
		return 0, fmt.Errorf("decision: no calibration samples")
	}
	// Pre-compute logits once; scaling them is cheap.
	type sample struct {
		logits tensor.Vector
		label  int
	}
	samples := make([]sample, 0, len(val))
	for _, s := range val {
		if s.ModelIdx < 0 || s.ModelIdx >= m.N {
			return 0, fmt.Errorf("decision: calibration label %d of %d", s.ModelIdx, m.N)
		}
		emb := m.Encoder.Embed(s.Frame)
		samples = append(samples, sample{logits: m.Head.Infer(nil, emb, nil), label: s.ModelIdx})
	}

	nll := func(temp float64) float64 {
		var total float64
		scaled := tensor.NewVector(m.N)
		for _, s := range samples {
			for i, v := range s.logits {
				scaled[i] = v / temp
			}
			total += tensor.LogSumExp(scaled) - scaled[s.label]
		}
		return total / float64(len(samples))
	}

	// Golden-section search over a generous temperature range.
	const (
		lo, hi = 0.25, 8.0
		phi    = 0.6180339887498949
		iters  = 60
	)
	a, b := lo, hi
	c := b - float64(phi*(b-a))
	d := a + float64(phi*(b-a))
	fc, fd := nll(c), nll(d)
	for i := 0; i < iters; i++ {
		if fc < fd {
			b, d, fd = d, c, fc
			c = b - float64(phi*(b-a))
			fc = nll(c)
		} else {
			a, c, fc = c, d, fd
			d = a + float64(phi*(b-a))
			fd = nll(d)
		}
	}
	temp := (a + b) / 2
	if nll(1) <= nll(temp) {
		// Calibration would not improve likelihood; leave the head
		// untouched.
		return 1, nil
	}
	alpha := 1 / temp
	if math.IsNaN(alpha) || math.IsInf(alpha, 0) || alpha == 0 {
		return 0, fmt.Errorf("decision: invalid scale %v", alpha)
	}
	// The head is immutable: folding the temperature produces a new
	// frozen program (copy-on-write on the final dense layer) and swaps
	// it in. Concurrent readers keep the program they already hold.
	scaled, err := m.Head.ScaleFinalDense(alpha)
	if err != nil {
		return 0, fmt.Errorf("decision: %w", err)
	}
	m.Head = scaled
	return temp, nil
}
