// Package sampling implements the paper's Adaptive Scene Sampling (ASS,
// §IV-B): building a balanced decision-model training set {Ψᵢ^sub} from
// the compressed models' training pools {Γᵢ} via Thompson sampling over
// per-pool Beta posteriors, with the closed-form "well sampled" stopping
// bound, plus the random-sampling baseline the paper contrasts in Fig. 3.
package sampling

import (
	"fmt"
	"math"

	"anole/internal/detect"
	"anole/internal/synth"
	"anole/internal/tensor"
	"anole/internal/xrand"
)

// Pool is one compressed model's training pool Γᵢ.
type Pool struct {
	// ModelIdx is the index of the model the pool belongs to.
	ModelIdx int
	// Frames is the pool content (the training frames of the model's
	// cluster scenes).
	Frames []*synth.Frame
}

// LabeledFrame is one decision-model training sample: a frame that model
// ModelIdx predicts accurately, with the observed per-frame F1. Because
// multi-level clustering gives every frame several containing pools, the
// same frame can be accepted for several models; downstream training uses
// F1 to resolve the ambiguity toward the best-fit model.
type LabeledFrame struct {
	Frame    *synth.Frame
	ModelIdx int
	F1       float64
}

// Config controls a sampling run. Zero values select defaults.
type Config struct {
	// Kappa is the number of accepted probes (distinct labeled frames)
	// to collect (default 512).
	Kappa int
	// Theta is the well-sampled confidence θ (default 0.95).
	Theta float64
	// AcceptF1 is the per-frame F1 at or above which a model is deemed
	// accurate on a sample (default 0.5).
	AcceptF1 float64
	// MaxRounds bounds the sampling loop regardless of progress
	// (default 50·Kappa).
	MaxRounds int
	// RNG is required for determinism.
	RNG *xrand.RNG
}

func (c *Config) setDefaults() {
	if c.Kappa <= 0 {
		c.Kappa = 512
	}
	if c.Theta <= 0 || c.Theta >= 1 {
		c.Theta = 0.95
	}
	if c.AcceptF1 <= 0 {
		c.AcceptF1 = 0.5
	}
	if c.MaxRounds <= 0 {
		c.MaxRounds = 50 * c.Kappa
	}
	if c.RNG == nil {
		c.RNG = xrand.New(0)
	}
}

// Result reports a sampling run: the accepted labeled samples (the
// Ψᵢ^sub content), the per-pool selection counts |Sᵢ| (the quantity
// plotted in Fig. 3 and tested against the well-sampled bound), and how
// many rounds were spent.
type Result struct {
	Samples []LabeledFrame
	Counts  []int
	Rounds  int
}

// AcceptedPerModel returns how many accepted samples each model
// contributed to Ψ^sub.
func (r Result) AcceptedPerModel(n int) []int {
	out := make([]int, n)
	for _, s := range r.Samples {
		if s.ModelIdx >= 0 && s.ModelIdx < n {
			out[s.ModelIdx]++
		}
	}
	return out
}

// NormalizedCounts returns Counts scaled so the maximum is 1, the exact
// form of Fig. 3's y-axis.
func (r Result) NormalizedCounts() []float64 {
	out := make([]float64, len(r.Counts))
	var max int
	for _, c := range r.Counts {
		if c > max {
			max = c
		}
	}
	if max == 0 {
		return out
	}
	for i, c := range r.Counts {
		out[i] = float64(c) / float64(max)
	}
	return out
}

// WellSampledBound returns the sample count above which a pool of
// gammaSize elements is considered well sampled with confidence theta:
//
//	|Sᵢ| > log(1 − θ^(1/|Γᵢ|)) / log(1 − 1/|Γᵢ|)
//
// (paper §IV-B). Degenerate pool sizes return 0.
func WellSampledBound(gammaSize int, theta float64) float64 {
	if gammaSize <= 1 || theta <= 0 || theta >= 1 {
		return 0
	}
	g := float64(gammaSize)
	num := math.Log(1 - math.Pow(theta, 1/g))
	den := math.Log(1 - 1/g)
	return num / den
}

// Adaptive runs the paper's Thompson-sampling ASS. Each round it skips
// pools that are already well sampled, draws a sampling probability
// pᵢ ~ Beta(αᵢ, βᵢ) for the rest, probes one frame from the pool with the
// highest draw, and tests the pool's model on the frame: accurate frames
// join Ψᵢ^sub. The loop stops after Kappa accepted samples, when every
// pool is well sampled, or at MaxRounds.
//
// Interpretation note: the paper's text increments the sampled pool's α,
// which in isolation concentrates sampling on one pool — the opposite of
// the balance the section (and Fig. 3b) demonstrates. We implement the
// update that realizes the stated goal: the probed pool's β grows and
// every other pool's α grows, so under-sampled pools rise in probability
// and the selection counts equalize. EXPERIMENTS.md records this
// deviation.
func Adaptive(models []*detect.Detector, pools []Pool, cfg Config) (Result, error) {
	if err := validate(models, pools); err != nil {
		return Result{}, err
	}
	cfg.setDefaults()

	n := len(pools)
	alpha := make([]float64, n)
	beta := make([]float64, n)
	for i := range alpha {
		alpha[i], beta[i] = 1, 1
	}
	bounds := make([]float64, n)
	for i, p := range pools {
		bounds[i] = WellSampledBound(len(p.Frames), cfg.Theta)
	}

	res := Result{Counts: make([]int, n)}
	accepted := 0
	for res.Rounds = 0; res.Rounds < cfg.MaxRounds && accepted < cfg.Kappa; res.Rounds++ {
		best, bestDraw := -1, -1.0
		for i := range pools {
			if float64(res.Counts[i]) > bounds[i] {
				continue // well sampled; drop out of contention
			}
			if draw := cfg.RNG.Beta(alpha[i], beta[i]); draw > bestDraw {
				best, bestDraw = i, draw
			}
		}
		if best < 0 {
			break // every pool is well sampled
		}
		pool := pools[best]
		frame := pool.Frames[cfg.RNG.Intn(len(pool.Frames))]
		res.Counts[best]++
		if labels := acceptedLabels(models, pool.ModelIdx, frame, cfg.AcceptF1); len(labels) > 0 {
			res.Samples = append(res.Samples, labels...)
			accepted++
		}
		for i := range pools {
			if i == best {
				beta[i]++
			} else {
				alpha[i]++
			}
		}
	}
	return res, nil
}

// Random is the baseline sampler: each round picks a pool with
// probability proportional to its size (equivalent to drawing a frame
// uniformly from the union of pools), tests the pool's model, and keeps
// accurate samples. It produces the unbalanced Ψ^sub distribution of
// Fig. 3(a).
func Random(models []*detect.Detector, pools []Pool, cfg Config) (Result, error) {
	if err := validate(models, pools); err != nil {
		return Result{}, err
	}
	cfg.setDefaults()

	weights := make([]float64, len(pools))
	for i, p := range pools {
		weights[i] = float64(len(p.Frames))
	}
	res := Result{Counts: make([]int, len(pools))}
	accepted := 0
	for res.Rounds = 0; res.Rounds < cfg.MaxRounds && accepted < cfg.Kappa; res.Rounds++ {
		i := cfg.RNG.Categorical(weights)
		pool := pools[i]
		frame := pool.Frames[cfg.RNG.Intn(len(pool.Frames))]
		res.Counts[i]++
		if labels := acceptedLabels(models, pool.ModelIdx, frame, cfg.AcceptF1); len(labels) > 0 {
			res.Samples = append(res.Samples, labels...)
			accepted++
		}
	}
	return res, nil
}

// acceptedLabels implements the Ψ^sub membership test for one probed
// frame: the probing pool's model must be accurate (F1 ≥ accept) for the
// probe to be accepted at all; an accepted frame is then scored by every
// model, joining Ψ_j^sub for each accurate model j. The multi-label form
// is what the paper's allocation vector v^x encodes, and it lets decision
// training resolve each frame to its best-fit model. The frame feature
// is computed once for every model, and the gate's score is reused for
// the pool's own model.
func acceptedLabels(models []*detect.Detector, poolModel int, frame *synth.Frame, accept float64) []LabeledFrame {
	frames := []*synth.Frame{frame}
	feats := []tensor.Vector{synth.FrameFeature(frame)}
	preds := make([][]detect.CellPred, 1)
	score := func(det *detect.Detector) float64 {
		det.DetectBatchFeatures(preds, frames, feats)
		return detect.ScorePredictions(preds[0], frame).F1
	}
	gate := score(models[poolModel])
	if gate < accept {
		return nil
	}
	var out []LabeledFrame
	for j, det := range models {
		f1 := gate
		if j != poolModel {
			f1 = score(det)
		}
		if f1 >= accept {
			out = append(out, LabeledFrame{Frame: frame, ModelIdx: j, F1: f1})
		}
	}
	return out
}

func validate(models []*detect.Detector, pools []Pool) error {
	if len(pools) == 0 {
		return fmt.Errorf("sampling: no pools")
	}
	for _, p := range pools {
		if p.ModelIdx < 0 || p.ModelIdx >= len(models) {
			return fmt.Errorf("sampling: pool references model %d of %d", p.ModelIdx, len(models))
		}
		if len(p.Frames) == 0 {
			return fmt.Errorf("sampling: pool for model %d is empty", p.ModelIdx)
		}
	}
	return nil
}
