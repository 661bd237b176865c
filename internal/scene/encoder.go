package scene

import (
	"fmt"
	"sort"

	"anole/internal/nn"
	"anole/internal/stats"
	"anole/internal/synth"
	"anole/internal/tensor"
	"anole/internal/xrand"
)

// Encoder is M_scene: a classifier trained with semantic-scene indices as
// weak labels, whose last hidden activation serves as the scene embedding
// (paper §IV-A2, "Scene Embedding"). It doubles as the frozen backbone of
// M_decision.
//
// The backbone is an immutable nn.Weights program, so one Encoder is safe
// to share across any number of goroutines — no cloning required.
type Encoder struct {
	Weights *nn.Weights
	// ClassToScene maps classifier output index to semantic scene index
	// (only scenes present in training data get classes).
	ClassToScene []int
	// sceneToClass is the inverse map.
	sceneToClass map[int]int
	// embedLayers is the layer prefix whose output is the embedding.
	embedLayers int
	embedDim    int
}

// EncoderConfig controls M_scene training. Zero values choose defaults.
type EncoderConfig struct {
	// Hidden are the MLP hidden widths; the last entry is the embedding
	// dimension (default [32, 16]).
	Hidden []int
	// Epochs, BatchSize, LR configure training (defaults 30, 32, 0.01).
	Epochs    int
	BatchSize int
	LR        float64
	// Patience enables early stopping on a held-out split when val
	// frames are supplied.
	Patience int
	// Workers shards gradient computation.
	Workers int
	// RNG is required for determinism.
	RNG *xrand.RNG
}

func (c *EncoderConfig) setDefaults() {
	if len(c.Hidden) == 0 {
		c.Hidden = []int{32, 16}
	}
	if c.Epochs <= 0 {
		c.Epochs = 30
	}
	if c.BatchSize <= 0 {
		c.BatchSize = 32
	}
	if c.LR <= 0 {
		c.LR = 0.01
	}
	if c.RNG == nil {
		c.RNG = xrand.New(0)
	}
}

// TrainEncoder fits M_scene on the training frames, using the semantic
// scene of each frame as its label. val may be nil.
func TrainEncoder(train, val []*synth.Frame, cfg EncoderConfig) (*Encoder, error) {
	cfg.setDefaults()
	if len(train) == 0 {
		return nil, fmt.Errorf("scene: no training frames")
	}

	// Build the label space from scenes present in training data.
	present := make(map[int]bool)
	for _, f := range train {
		present[f.Scene.Index()] = true
	}
	classToScene := make([]int, 0, len(present))
	for idx := range present {
		classToScene = append(classToScene, idx)
	}
	sort.Ints(classToScene)
	sceneToClass := make(map[int]int, len(classToScene))
	for cls, idx := range classToScene {
		sceneToClass[idx] = cls
	}
	numClasses := len(classToScene)

	featDim := synth.FrameFeatureDim(train[0].FeatDim())
	net := nn.NewMLP(nn.MLPConfig{InDim: featDim, Hidden: cfg.Hidden, OutDim: numClasses}, cfg.RNG)

	toSamples := func(frames []*synth.Frame) []nn.Sample {
		var out []nn.Sample
		for _, f := range frames {
			cls, ok := sceneToClass[f.Scene.Index()]
			if !ok {
				continue // scene unseen in training; skip for val
			}
			y := tensor.NewVector(numClasses)
			y[cls] = 1
			out = append(out, nn.Sample{X: synth.FrameFeature(f), Y: y})
		}
		return out
	}
	var valSamples []nn.Sample
	if len(val) > 0 && cfg.Patience > 0 {
		valSamples = toSamples(val)
	}
	if _, err := nn.Train(net, toSamples(train), valSamples, nn.TrainConfig{
		Epochs:    cfg.Epochs,
		BatchSize: cfg.BatchSize,
		Loss:      nn.NewSoftmaxCrossEntropy(),
		Optimizer: nn.NewAdam(cfg.LR),
		RNG:       cfg.RNG,
		Patience:  cfg.Patience,
		Workers:   cfg.Workers,
	}); err != nil {
		return nil, fmt.Errorf("scene: train encoder: %w", err)
	}

	// The embedding is the activation after the last hidden block:
	// layers are [Dense, Act, Dense, Act, ..., Dense(out)], so the
	// prefix is everything except the final output Dense.
	embedLayers := net.NumLayers() - 1
	return &Encoder{
		Weights:      net.Freeze(),
		ClassToScene: classToScene,
		sceneToClass: sceneToClass,
		embedLayers:  embedLayers,
		embedDim:     cfg.Hidden[len(cfg.Hidden)-1],
	}, nil
}

// EmbedDim returns the embedding dimensionality.
func (e *Encoder) EmbedDim() int { return e.embedDim }

// NumClasses returns the number of semantic scenes the encoder
// discriminates.
func (e *Encoder) NumClasses() int { return len(e.ClassToScene) }

// Embed returns the scene embedding of frame f. The returned vector is
// caller-owned by construction (no defensive clone needed: the frozen
// program never aliases its outputs).
func (e *Encoder) Embed(f *synth.Frame) tensor.Vector {
	return e.EmbedFeatureInto(nil, synth.FrameFeature(f))
}

// EmbedFeature embeds a precomputed frame feature vector into a fresh
// caller-owned vector.
func (e *Encoder) EmbedFeature(feat tensor.Vector) tensor.Vector {
	return e.EmbedFeatureInto(nil, feat)
}

// EmbedFeatureInto embeds feat into dst (allocating only when dst is nil
// or mis-sized) and returns dst. This is the steady-state runtime path:
// with a reused dst the embedding step performs no heap allocations.
func (e *Encoder) EmbedFeatureInto(dst, feat tensor.Vector) tensor.Vector {
	return e.Weights.InferThrough(e.embedLayers, dst, feat, nil)
}

// EmbedBatchInto embeds a batch of precomputed frame features (one per
// row of feats) into dst (one embedding per row, allocating only when
// dst is nil or mis-shaped) and returns dst. s supplies the intermediate
// activation matrices; pass nil to borrow one from the shared pool.
// Each dense layer runs as one matrix product for the whole batch, and
// per row the result is bit-identical to EmbedFeatureInto.
func (e *Encoder) EmbedBatchInto(dst, feats *tensor.Matrix, s *nn.BatchScratch) *tensor.Matrix {
	return e.Weights.InferBatchThrough(e.embedLayers, dst, feats, s)
}

// Classify returns the predicted class index (position in ClassToScene)
// for frame f.
func (e *Encoder) Classify(f *synth.Frame) int {
	return e.Weights.Infer(nil, synth.FrameFeature(f), nil).Argmax()
}

// ClassOf returns the class index of a semantic scene, or -1 when the
// scene was absent from training.
func (e *Encoder) ClassOf(sceneIdx int) int {
	cls, ok := e.sceneToClass[sceneIdx]
	if !ok {
		return -1
	}
	return cls
}

// ConfusionOn evaluates scene classification on frames and returns the
// confusion matrix over the encoder's class space (Fig. 6a). Frames whose
// scene was absent from training are skipped.
func (e *Encoder) ConfusionOn(frames []*synth.Frame) *stats.ConfusionMatrix {
	cm := stats.NewConfusionMatrix(e.NumClasses())
	for _, f := range frames {
		trueCls := e.ClassOf(f.Scene.Index())
		if trueCls < 0 {
			continue
		}
		cm.Observe(trueCls, e.Classify(f))
	}
	return cm
}

// FromParts reconstructs an Encoder from deserialized frozen weights and
// a class map (used by internal/repo when a device downloads the bundle).
func FromParts(w *nn.Weights, classToScene []int, embedDim int) (*Encoder, error) {
	if w.NumLayers() < 2 {
		return nil, fmt.Errorf("scene: encoder network too shallow")
	}
	if w.OutDim() != len(classToScene) {
		return nil, fmt.Errorf("scene: network outputs %d classes, map has %d", w.OutDim(), len(classToScene))
	}
	sceneToClass := make(map[int]int, len(classToScene))
	for cls, idx := range classToScene {
		sceneToClass[idx] = cls
	}
	return &Encoder{
		Weights:      w,
		ClassToScene: append([]int(nil), classToScene...),
		sceneToClass: sceneToClass,
		embedLayers:  w.NumLayers() - 1,
		embedDim:     embedDim,
	}, nil
}
