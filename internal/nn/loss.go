package nn

import (
	"math"

	"anole/internal/tensor"
)

// Loss computes a scalar objective and its gradient with respect to the
// network's raw output (logits for the classification losses).
type Loss interface {
	// Eval returns the loss value and writes dLoss/dOutput into grad
	// (which has the output's length and is overwritten).
	Eval(output, target tensor.Vector, grad tensor.Vector) float64
	// Grad writes the same dLoss/dOutput as Eval, bit for bit, without
	// computing the loss value; the training step needs only this.
	Grad(output, target tensor.Vector, grad tensor.Vector)
	// Name identifies the loss for logs.
	Name() string
}

// SoftmaxCrossEntropy is the fused softmax + categorical cross-entropy
// loss. The target is a one-hot (or soft) distribution over classes. The
// fused form keeps the gradient numerically benign: grad = softmax(o) − t.
// The type is stateless, so one instance may be shared by concurrent
// trainer workers.
type SoftmaxCrossEntropy struct{}

// NewSoftmaxCrossEntropy returns the fused classification loss used to
// train M_scene and M_decision.
func NewSoftmaxCrossEntropy() *SoftmaxCrossEntropy { return &SoftmaxCrossEntropy{} }

// Eval implements Loss. It reuses grad as softmax scratch space before
// overwriting it with the gradient.
func (l *SoftmaxCrossEntropy) Eval(output, target, grad tensor.Vector) float64 {
	probs := tensor.Softmax(grad, output)
	var loss float64
	for i, t := range target {
		if t > 0 {
			p := probs[i]
			if p < 1e-12 {
				p = 1e-12
			}
			loss -= float64(t * math.Log(p))
		}
		grad[i] = probs[i] - t
	}
	return loss
}

// Grad implements Loss: softmax(o) − t, with grad as softmax scratch.
func (l *SoftmaxCrossEntropy) Grad(output, target, grad tensor.Vector) {
	probs := tensor.Softmax(grad, output)
	for i, t := range target {
		grad[i] = probs[i] - t
	}
}

// Name implements Loss.
func (l *SoftmaxCrossEntropy) Name() string { return "softmax-xent" }

// BCEWithLogits is element-wise binary cross-entropy on logits, used for
// the detectors' multi-label objectness/class heads. Gradient per element
// is sigmoid(o) − t.
type BCEWithLogits struct{}

// NewBCEWithLogits returns the multi-label detection loss.
func NewBCEWithLogits() *BCEWithLogits { return &BCEWithLogits{} }

// Eval implements Loss.
func (l *BCEWithLogits) Eval(output, target, grad tensor.Vector) float64 {
	var loss float64
	n := float64(len(output))
	for i, o := range output {
		t := target[i]
		// Numerically stable BCE-with-logits:
		// max(o,0) - o*t + log(1+exp(-|o|)).
		e := math.Exp(-math.Abs(o))
		loss += math.Max(o, 0) - float64(o*t) + math.Log1p(e)
		// sigmoid(o) = 1/(1+exp(-o)). For o >= 0 (−0 included) exp(-o) is
		// exactly e, so the second Exp is only paid for negative o and NaN.
		var s float64
		if o >= 0 {
			s = 1 / (1 + e)
		} else {
			s = 1 / (1 + math.Exp(-o))
		}
		grad[i] = (s - t) / n
	}
	return loss / n
}

// Grad implements Loss: (sigmoid(o) − t)/n per element. Eval's
// sigmoid reuses exp(-|o|) only where it equals exp(-o), so one Exp per
// element gives the same bits, and the loss's Log1p is never paid.
func (l *BCEWithLogits) Grad(output, target, grad tensor.Vector) {
	n := float64(len(output))
	for i, o := range output {
		grad[i] = (1/(1+math.Exp(-o)) - target[i]) / n
	}
}

// Name implements Loss.
func (l *BCEWithLogits) Name() string { return "bce-logits" }
