// Package eval is the experiment harness: one entry point per table and
// figure in the paper's evaluation section (§VI), each returning typed
// rows/series that cmd/anole-bench and bench_test.go render. A Lab holds
// the shared trained artifacts (corpus, Anole bundle, the four candidate
// methods) so experiments compose without retraining.
package eval

import (
	"fmt"

	"anole/internal/baselines"
	"anole/internal/core"
	"anole/internal/detect"
	"anole/internal/synth"
	"anole/internal/xrand"
)

// LabConfig sizes a Lab. Zero values select the full paper-scale setup.
type LabConfig struct {
	// Seed roots all randomness.
	Seed uint64
	// Scale shrinks the corpus (clip counts and lengths) for fast runs;
	// 1 is the paper-scale 64-clip corpus.
	Scale float64
	// SceneShift overrides the world's appearance-shift strength when
	// positive (the A1 ablation knob).
	SceneShift float64
	// Profile configures Anole's offline profiling; zero value uses
	// core.DefaultProfileConfig(Seed) adjusted to the corpus size.
	Profile core.ProfileConfig
	// BaselineEpochs is the training budget of the candidate methods
	// (default 12).
	BaselineEpochs int
	// Workers parallelizes model training (default 4).
	Workers int
}

// DefaultLabConfig is the paper-scale configuration used by
// cmd/anole-bench.
func DefaultLabConfig(seed uint64) LabConfig {
	return LabConfig{Seed: seed, Scale: 1}
}

// QuickLabConfig is a reduced configuration for tests and smoke runs:
// a quarter-scale corpus and a 6-model repertoire.
func QuickLabConfig(seed uint64) LabConfig {
	cfg := LabConfig{Seed: seed, Scale: 0.3, BaselineEpochs: 15}
	p := core.DefaultProfileConfig(seed)
	p.Repertoire.N = 12
	p.Repertoire.Delta = 0.05
	p.Repertoire.MaxK = 8
	p.Repertoire.Train.Epochs = 25
	p.Sampling.Kappa = 900
	p.Sampling.AcceptF1 = 0.3
	cfg.Profile = p
	return cfg
}

func (c *LabConfig) setDefaults() {
	if c.Scale <= 0 || c.Scale > 1 {
		c.Scale = 1
	}
	if c.BaselineEpochs <= 0 {
		c.BaselineEpochs = 12
	}
	if c.Workers <= 0 {
		c.Workers = 4
	}
	if c.Profile.Repertoire.N == 0 {
		c.Profile = core.DefaultProfileConfig(c.Seed)
	}
	c.Profile.Seed = c.Seed
	c.Profile.Repertoire.Workers = c.Workers
	c.Profile.Encoder.Workers = c.Workers
}

// Lab is the shared experimental setup: the synthetic world and corpus,
// the profiled Anole bundle, and the four trained candidate methods.
type Lab struct {
	Config LabConfig
	World  *synth.World
	Corpus *synth.Corpus
	Bundle *core.Bundle

	SDM *baselines.SDM
	SSM *baselines.SSM
	CDG *baselines.CDG
	DMM *baselines.DMM
}

// NewLab builds the full setup: generates the corpus, runs offline scene
// profiling, and trains SDM/SSM/CDG/DMM on the same training split.
func NewLab(cfg LabConfig) (*Lab, error) {
	cfg.setDefaults()
	wc := synth.DefaultConfig(cfg.Seed)
	if cfg.SceneShift > 0 {
		wc.SceneShift = cfg.SceneShift
	}
	world, err := synth.NewWorld(wc)
	if err != nil {
		return nil, fmt.Errorf("eval: %w", err)
	}
	corpus := world.GenerateCorpus(synth.DefaultProfiles(cfg.Scale))
	bundle, err := core.Profile(corpus, cfg.Profile)
	if err != nil {
		return nil, fmt.Errorf("eval: profile: %w", err)
	}

	train := corpus.Frames(synth.Train)
	val := corpus.Frames(synth.Val)
	rng := xrand.NewLabeled(cfg.Seed, "eval-baselines")
	tc := func(tag uint64) detect.TrainConfig {
		return detect.TrainConfig{Epochs: cfg.BaselineEpochs, Workers: cfg.Workers, RNG: rng.Split(tag)}
	}
	sdm, err := baselines.TrainSDM(train, val, tc(1))
	if err != nil {
		return nil, fmt.Errorf("eval: %w", err)
	}
	ssm, err := baselines.TrainSSM(train, val, tc(2))
	if err != nil {
		return nil, fmt.Errorf("eval: %w", err)
	}
	cdg, err := baselines.TrainCDG(train, val, baselines.CDGConfig{
		K:     6,
		Train: detect.TrainConfig{Epochs: cfg.BaselineEpochs, Workers: cfg.Workers},
		RNG:   rng.Split(3),
	})
	if err != nil {
		return nil, fmt.Errorf("eval: %w", err)
	}
	dmm, err := baselines.TrainDMM(train, val, tc(4))
	if err != nil {
		return nil, fmt.Errorf("eval: %w", err)
	}
	return &Lab{
		Config: cfg,
		World:  world,
		Corpus: corpus,
		Bundle: bundle,
		SDM:    sdm,
		SSM:    ssm,
		CDG:    cdg,
		DMM:    dmm,
	}, nil
}

// Selectors returns the four baseline methods in the paper's table order
// (SDM, SSM, CDG, DMM).
func (l *Lab) Selectors() []baselines.Selector {
	return []baselines.Selector{l.SDM, l.SSM, l.CDG, l.DMM}
}

// MethodNames returns the five method names in presentation order,
// Anole last as in the paper's tables.
func MethodNames() []string {
	return []string{"SDM", "SSM", "CDG", "DMM", "Anole"}
}

// synthClips builds the six fast-changing synthesized clips T1–T6 of
// §VI-C: each splices segments cut from five randomly chosen clips (test
// frames for seen clips). Segment length is capped by the available
// frames, so reduced-scale labs produce shorter clips with the same
// structure.
func (l *Lab) synthClips(segment int) [][]*synth.Frame {
	rng := xrand.NewLabeled(l.Config.Seed, "eval-synth-clips")
	const numClips = 6
	out := make([][]*synth.Frame, 0, numClips)
	for t := 0; t < numClips; t++ {
		var spliced []*synth.Frame
		for seg := 0; seg < 5; seg++ {
			clip := l.Corpus.Clips[rng.Intn(len(l.Corpus.Clips))]
			var pool []*synth.Frame
			n := len(clip.Frames)
			for i, f := range clip.Frames {
				if synth.SplitOf(i, n, clip.Seen) == synth.Test || !clip.Seen {
					pool = append(pool, f)
				}
			}
			if len(pool) == 0 {
				continue
			}
			segLen := segment
			if segLen > len(pool) {
				segLen = len(pool)
			}
			start := 0
			if len(pool) > segLen {
				start = rng.Intn(len(pool) - segLen)
			}
			spliced = append(spliced, pool[start:start+segLen]...)
		}
		out = append(out, spliced)
	}
	return out
}
