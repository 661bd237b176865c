package nn

import (
	"fmt"
	"math"
)

// Quantization: the paper situates Anole in the model-compression
// landscape ("reduce quantization precision to minimize computational
// cost, e.g., use integers instead of floating-point numbers", §VII-A).
// Quantize applies symmetric per-tensor post-training quantization to
// every dense layer: weights and biases snap to a signed integer grid of
// the requested bit width. The returned network computes in float64 (the
// simulator models compute cost separately) but its parameters carry at
// most 2^bits distinct magnitudes, and serialization stores them as
// integers — so the bundle genuinely shrinks by ~64/bits.

// Quantize returns a copy of net with all dense parameters quantized to
// the given bit width (2..16). The input network is not modified.
func Quantize(net *Network, bits int) (*Network, error) {
	if bits < 2 || bits > 16 {
		return nil, fmt.Errorf("nn: quantization bits %d outside [2,16]", bits)
	}
	out := net.Clone()
	for _, l := range out.layers {
		d, ok := l.(*Dense)
		if !ok {
			continue
		}
		quantizeSlice(d.W.Data, bits)
		quantizeSlice(d.B, bits)
		d.quantBits = bits
	}
	return out, nil
}

// quantizeSlice snaps xs onto a symmetric grid with 2^(bits-1)-1 positive
// levels, scaled to the slice's maximum magnitude.
func quantizeSlice(xs []float64, bits int) {
	scale := quantScale(xs, bits)
	if scale == 0 {
		return
	}
	for i, x := range xs {
		xs[i] = math.Round(x/scale) * scale
	}
}

// quantScale returns the grid step for xs at the given bit width, or 0
// for an all-zero slice.
func quantScale(xs []float64, bits int) float64 {
	var maxAbs float64
	for _, x := range xs {
		if a := math.Abs(x); a > maxAbs {
			maxAbs = a
		}
	}
	if maxAbs == 0 {
		return 0
	}
	levels := float64(int64(1)<<(bits-1)) - 1
	return maxAbs / levels
}

// QuantAccuracyFactor estimates the validation-quality multiplier of
// running at the given weight bit width: 1 at full precision (bits 0 or
// ≥ 16), decaying quadratically as the grid coarsens — post-training
// quantization is near-lossless at 8 bits (~1% here), noticeable at 4
// (~6%), and severe at 2 (~12%). Per-device planning multiplies a
// variant's measured full-precision F1 by this factor to rank variants
// without running validation for every (model, width) pair.
func QuantAccuracyFactor(bits int) float64 {
	if bits <= 0 || bits >= 16 {
		return 1
	}
	saved := float64(16-bits) / 14 // 0 at 16 bits → 1 at 2 bits
	return 1 - float64(0.12*saved*saved)
}

// QuantBits returns the bit width the network's dense layers were
// quantized to, or 0 for full-precision networks. Mixed-precision
// networks report the first dense layer's width.
func (n *Network) QuantBits() int {
	for _, l := range n.layers {
		if d, ok := l.(*Dense); ok {
			return d.quantBits
		}
	}
	return 0
}

// WeightBytes (see network.go) reports 8 bytes per parameter for
// full-precision networks; quantized networks store integers plus one
// float64 scale per tensor, which quantizedWeightBytes accounts for.
func (n *Network) quantizedWeightBytes() (int64, bool) {
	bits := n.QuantBits()
	if bits == 0 {
		return 0, false
	}
	bytesPer := (bits + 7) / 8
	var total int64
	for _, l := range n.layers {
		d, ok := l.(*Dense)
		if !ok {
			continue
		}
		total += int64(len(d.W.Data)+len(d.B))*int64(bytesPer) + 16 // two scales
	}
	return total, true
}
