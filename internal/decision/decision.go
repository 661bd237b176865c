// Package decision implements the paper's decision model M_decision
// (§IV-C): a small MLP head on top of the frozen M_scene embedding,
// trained with cross-entropy on the adaptive-scene-sampling output to
// predict, for any frame, the suitability probability of each compressed
// model in the repertoire. Online, the Model Selection Strategy (§V-A)
// ranks models by these probabilities for every test sample.
package decision

import (
	"fmt"

	"anole/internal/detect"
	"anole/internal/nn"
	"anole/internal/sampling"
	"anole/internal/scene"
	"anole/internal/stats"
	"anole/internal/synth"
	"anole/internal/tensor"
	"anole/internal/xrand"
)

// Model is M_decision: the frozen scene encoder plus a frozen head
// producing one suitability logit per compressed model. Both parts are
// immutable nn.Weights programs, so one Model is safe to share across
// goroutines without cloning.
type Model struct {
	// Encoder is the frozen M_scene backbone.
	Encoder *scene.Encoder
	// Head maps scene embeddings to suitability logits.
	Head *nn.Weights
	// N is the repertoire size.
	N int
}

// Config controls decision-model training. Zero values select defaults.
type Config struct {
	// Hidden are the head's hidden widths (default [16]).
	Hidden []int
	// Epochs, BatchSize, LR configure the training run (defaults 40,
	// 32, 0.01).
	Epochs    int
	BatchSize int
	LR        float64
	// Patience enables early stopping on a valFraction validation slice
	// (default 0, disabled).
	Patience int
	// Workers shards gradient computation.
	Workers int
	// RNG is required for determinism.
	RNG *xrand.RNG
}

// valFraction is the share of the samples Train holds out for early
// stopping when Patience > 0.
const valFraction = 0.2

func (c *Config) setDefaults() {
	if len(c.Hidden) == 0 {
		c.Hidden = []int{16}
	}
	if c.Epochs <= 0 {
		c.Epochs = 40
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

// Train fits M_decision on the ASS output: each sample is (frame, index
// of an accurate model). The encoder stays frozen — only embeddings flow
// into the head (paper §IV-C: freezing improves training efficiency and
// generalization).
func Train(enc *scene.Encoder, samples []sampling.LabeledFrame, n int, cfg Config) (*Model, error) {
	if enc == nil {
		return nil, fmt.Errorf("decision: nil encoder")
	}
	if n <= 0 {
		return nil, fmt.Errorf("decision: repertoire size %d", n)
	}
	if len(samples) == 0 {
		return nil, fmt.Errorf("decision: no training samples")
	}
	cfg.setDefaults()

	// Multi-level clustering places every frame in one pool per level,
	// so the same frame may arrive labeled for several models. Keep the
	// best-F1 label per frame (M_decision predicts the best-fit model),
	// preserving first-appearance order so training is deterministic.
	bestByFrame := make(map[*synth.Frame]sampling.LabeledFrame, len(samples))
	var order []*synth.Frame
	for _, s := range samples {
		if s.ModelIdx < 0 || s.ModelIdx >= n {
			return nil, fmt.Errorf("decision: sample labels model %d of %d", s.ModelIdx, n)
		}
		prev, ok := bestByFrame[s.Frame]
		if !ok {
			order = append(order, s.Frame)
		}
		if !ok || s.F1 > prev.F1 {
			bestByFrame[s.Frame] = s
		}
	}
	all := make([]nn.Sample, 0, len(order))
	for _, f := range order {
		s := bestByFrame[f]
		y := tensor.NewVector(n)
		y[s.ModelIdx] = 1
		all = append(all, nn.Sample{X: enc.Embed(s.Frame), Y: y})
	}
	// Shuffle before the train/val cut so the split is not biased by
	// sampling order.
	cfg.RNG.Shuffle(len(all), func(i, j int) { all[i], all[j] = all[j], all[i] })
	train := all
	var val []nn.Sample
	if cfg.Patience > 0 && len(all) >= 10 {
		cut := len(all) - int(float64(len(all))*valFraction)
		train, val = all[:cut], all[cut:]
	}

	head := nn.NewMLP(nn.MLPConfig{InDim: enc.EmbedDim(), Hidden: cfg.Hidden, OutDim: n}, cfg.RNG)
	if _, err := nn.Train(head, train, val, nn.TrainConfig{
		Epochs:    cfg.Epochs,
		BatchSize: cfg.BatchSize,
		Loss:      nn.NewSoftmaxCrossEntropy(),
		Optimizer: nn.NewAdam(cfg.LR),
		RNG:       cfg.RNG,
		Patience:  cfg.Patience,
		Workers:   cfg.Workers,
	}); err != nil {
		return nil, fmt.Errorf("decision: train head: %w", err)
	}
	return &Model{Encoder: enc, Head: head.Freeze(), N: n}, nil
}

// FromParts reconstructs a Model from a deserialized head (device-side
// bundle loading).
func FromParts(enc *scene.Encoder, head *nn.Weights) (*Model, error) {
	if enc == nil || head == nil {
		return nil, fmt.Errorf("decision: nil part")
	}
	if head.InDim() != enc.EmbedDim() {
		return nil, fmt.Errorf("decision: head input %d, embedding %d", head.InDim(), enc.EmbedDim())
	}
	return &Model{Encoder: enc, Head: head, N: head.OutDim()}, nil
}

// Scores returns the model-allocation vector v^x for frame f: softmax
// suitability probabilities over the repertoire. The returned slice is
// freshly allocated.
func (m *Model) Scores(f *synth.Frame) []float64 {
	emb := m.Encoder.EmbedFeature(synth.FrameFeature(f))
	return m.ScoresFromEmbedding(emb)
}

// ScoresFromEmbedding computes suitability probabilities from a
// precomputed scene embedding.
func (m *Model) ScoresFromEmbedding(emb tensor.Vector) []float64 {
	return m.ScoresInto(nil, emb)
}

// ScoresInto computes suitability probabilities from a precomputed scene
// embedding into dst (allocating only when dst is nil or mis-sized) and
// returns dst. With a reused dst this is the runtime's allocation-free
// Model Selection Strategy step: logits land in dst, then softmax runs
// in place.
func (m *Model) ScoresInto(dst []float64, emb tensor.Vector) []float64 {
	logits := m.Head.Infer(tensor.Vector(dst), emb, nil)
	return tensor.Softmax(logits, logits)
}

// ScoresBatchInto computes suitability probabilities for a batch of
// precomputed scene embeddings (one per row of embs) into dst (one
// probability vector per row, allocating only when dst is nil or
// mis-shaped) and returns dst. s supplies the head's intermediate
// activation matrices; pass nil to borrow one from its pool. The head
// runs as one matrix product per dense layer and softmax runs in place
// per row, so each row is bit-identical to ScoresInto on that embedding.
func (m *Model) ScoresBatchInto(dst, embs *tensor.Matrix, s *nn.BatchScratch) *tensor.Matrix {
	dst = m.Head.InferBatch(dst, embs, s)
	for r := 0; r < dst.Rows; r++ {
		row := dst.Row(r)
		tensor.Softmax(row, row)
	}
	return dst
}

// Best returns the top-ranked model index and its probability, the
// confidence signal the paper uses to detect "no suitable model exists".
func (m *Model) Best(f *synth.Frame) (int, float64) {
	scores := m.Scores(f)
	best := stats.ArgmaxFloat(scores)
	return best, scores[best]
}

// FLOPs returns the end-to-end per-frame decision cost: scene-encoder
// embedding plus head (the "M_scene + M_decision" row of Table IV).
func (m *Model) FLOPs() int64 {
	return m.Encoder.Weights.FLOPs() + m.Head.FLOPs()
}

// WeightBytes returns the combined serialized size.
func (m *Model) WeightBytes() int64 {
	return m.Encoder.Weights.WeightBytes() + m.Head.WeightBytes()
}

// ConfusionOn evaluates top-1 model selection against the oracle best
// model (highest per-frame F1, ties to the lower index) over frames,
// producing the Fig. 6(b) confusion matrix; the models are scored with
// detect.ScoreTable. Frames where every model scores zero F1 are
// skipped, since no selection is "right" there.
func (m *Model) ConfusionOn(models []*detect.Detector, frames []*synth.Frame) *stats.ConfusionMatrix {
	cm := stats.NewConfusionMatrix(m.N)
	scores := detect.ScoreTable(models, frames)
	for i, f := range frames {
		bestIdx, bestF1 := -1, 0.0
		for k := range models {
			if f1 := scores[k][i].F1; f1 > bestF1 {
				bestIdx, bestF1 = k, f1
			}
		}
		if bestIdx < 0 {
			continue
		}
		pred, _ := m.Best(f)
		cm.Observe(bestIdx, pred)
	}
	return cm
}
