package core

import (
	"fmt"

	"anole/internal/detect"
)

// QuantizeBundle returns a copy of the bundle whose compressed detectors
// carry post-training-quantized weights at the given bit width. The scene
// encoder and decision head stay full precision: they are tiny and their
// embeddings drive both model selection and novelty scoring, where grid
// error compounds. Serialization stores quantized models as integers, so
// the device download shrinks by roughly 64/bits for the repertoire.
func QuantizeBundle(b *Bundle, bits int) (*Bundle, error) {
	if err := b.Validate(); err != nil {
		return nil, err
	}
	detectors := make([]*detect.Detector, len(b.Detectors))
	for i, d := range b.Detectors {
		qw, err := d.Weights().Quantize(bits)
		if err != nil {
			return nil, fmt.Errorf("core: quantize %s: %w", d.Name, err)
		}
		qd, err := detect.FromWeights(d.Name, d.Arch, d.FeatDim(), qw)
		if err != nil {
			return nil, fmt.Errorf("core: quantize %s: %w", d.Name, err)
		}
		detectors[i] = qd
	}
	out := &Bundle{
		Encoder:      b.Encoder,
		Decision:     b.Decision,
		Detectors:    detectors,
		Infos:        append([]ModelInfo(nil), b.Infos...),
		FeatDim:      b.FeatDim,
		Centroids:    b.Centroids,
		NoveltyScale: b.NoveltyScale,
	}
	// The copy serves the same centroids: it shares their packed layout.
	if b.packedCentroids() != nil {
		out.lanes.Store(b.lanes.Load())
	}
	if err := out.Validate(); err != nil {
		return nil, err
	}
	return out, nil
}

// RepertoireWeightBytes sums the serialized parameter bytes of the
// compressed-model repertoire (the dominant share of a device download).
func (b *Bundle) RepertoireWeightBytes() int64 {
	var total int64
	for _, d := range b.Detectors {
		total += d.WeightBytes()
	}
	return total
}
