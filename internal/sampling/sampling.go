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
	"anole/internal/stats"
	"anole/internal/synth"
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
// pool is well sampled, or at MaxRounds. Every model's F1 on every pool
// frame is scored once, batched, before the loop (see NewTable), so a
// probe is a table lookup.
//
// Interpretation note: the paper's text increments the sampled pool's α,
// which in isolation concentrates sampling on one pool — the opposite of
// the balance the section (and Fig. 3b) demonstrates. We implement the
// update that realizes the stated goal: the probed pool's β grows and
// every other pool's α grows, so under-sampled pools rise in probability
// and the selection counts equalize. EXPERIMENTS.md records this
// deviation.
func Adaptive(models []*detect.Detector, pools []Pool, cfg Config) (Result, error) {
	t, err := NewTable(models, pools)
	if err != nil {
		return Result{}, err
	}
	return t.Adaptive(cfg), nil
}

// Adaptive runs the package-level Adaptive on the table's models and
// pools.
func (t *Table) Adaptive(cfg Config) Result {
	cfg.setDefaults()
	pools := t.pools
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
		k := cfg.RNG.Intn(len(pools[best].Frames))
		res.Counts[best]++
		if labels := t.labels(best, k, pools[best].ModelIdx, cfg.AcceptF1); len(labels) > 0 {
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
	return res
}

// Random is the baseline sampler: each round picks a pool with
// probability proportional to its size (equivalent to drawing a frame
// uniformly from the union of pools), tests the pool's model, and keeps
// accurate samples. It produces the unbalanced Ψ^sub distribution of
// Fig. 3(a). Probes read the same count table as Adaptive's.
func Random(models []*detect.Detector, pools []Pool, cfg Config) (Result, error) {
	t, err := NewTable(models, pools)
	if err != nil {
		return Result{}, err
	}
	return t.Random(cfg), nil
}

// Random runs the package-level Random on the table's models and pools.
func (t *Table) Random(cfg Config) Result {
	cfg.setDefaults()
	pools := t.pools

	weights := make([]float64, len(pools))
	for i, p := range pools {
		weights[i] = float64(len(p.Frames))
	}
	res := Result{Counts: make([]int, len(pools))}
	accepted := 0
	for res.Rounds = 0; res.Rounds < cfg.MaxRounds && accepted < cfg.Kappa; res.Rounds++ {
		i := cfg.RNG.Categorical(weights)
		k := cfg.RNG.Intn(len(pools[i].Frames))
		res.Counts[i]++
		if labels := t.labels(i, k, pools[i].ModelIdx, cfg.AcceptF1); len(labels) > 0 {
			res.Samples = append(res.Samples, labels...)
			accepted++
		}
	}
	return res
}

// Table holds every model's per-frame counts on every distinct frame of
// a set of pools, scored once before any probe loop, so that a probe is
// a lookup and several sampling runs over the same models and pools
// share one scoring pass.
type Table struct {
	pools []Pool
	// counts[m][i] is model m's counts on distinct frame i.
	counts [][]stats.PRF1
	// frames[i] is distinct frame i, in first-seen order over the pools.
	frames []*synth.Frame
	// at[p][k] is the distinct index of pools[p].Frames[k].
	at [][]int
}

// NewTable validates the pools against the models and scores every
// model on every distinct frame of the pools with detect.ScoreTable, so
// every F1 is the one a per-probe ScoreBatch over the one frame would
// give.
func NewTable(models []*detect.Detector, pools []Pool) (*Table, error) {
	if err := validate(models, pools); err != nil {
		return nil, err
	}
	t := &Table{pools: pools, at: make([][]int, len(pools))}
	index := make(map[*synth.Frame]int)
	for p, pool := range pools {
		t.at[p] = make([]int, len(pool.Frames))
		for k, f := range pool.Frames {
			i, ok := index[f]
			if !ok {
				i = len(t.frames)
				index[f] = i
				t.frames = append(t.frames, f)
			}
			t.at[p][k] = i
		}
	}
	t.counts = detect.ScoreTable(models, t.frames)
	return t, nil
}

// labels implements the Ψ^sub membership test for frame k of pool p
// with model poolModel: the probing pool's model must be accurate
// (F1 ≥ accept) for the probe to be accepted at all; an accepted frame
// then joins Ψ_j^sub for each accurate model j. The multi-label form is
// what the paper's allocation vector v^x encodes, and it lets decision
// training resolve each frame to its best-fit model.
func (t *Table) labels(p, k, poolModel int, accept float64) []LabeledFrame {
	i := t.at[p][k]
	if t.counts[poolModel][i].F1 < accept {
		return nil
	}
	var out []LabeledFrame
	for j, row := range t.counts {
		if f1 := row[i].F1; f1 >= accept {
			out = append(out, LabeledFrame{Frame: t.frames[i], ModelIdx: j, F1: f1})
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
