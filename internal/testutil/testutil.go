// Package testutil builds shared fixtures for tests that need a fully
// profiled Anole bundle: a small synthetic corpus and the offline
// pipeline run over it. The fixture is built once per test binary and
// memoized, since profiling trains a dozen networks.
package testutil

import (
	"sync"
	"testing"

	"anole/internal/core"
	"anole/internal/decision"
	"anole/internal/detect"
	"anole/internal/sampling"
	"anole/internal/scene"
	"anole/internal/synth"
)

// Fixture bundles the memoized corpus and profiled bundle.
type Fixture struct {
	World  *synth.World
	Corpus *synth.Corpus
	Bundle *core.Bundle
}

var (
	once    sync.Once
	fixture Fixture
	buildE  error
)

// SmallProfileConfig returns a profiling configuration sized for unit
// tests: a handful of models, short training budgets.
func SmallProfileConfig(seed uint64) core.ProfileConfig {
	return core.ProfileConfig{
		Seed:    seed,
		Encoder: scene.EncoderConfig{Epochs: 15},
		Repertoire: scene.RepertoireConfig{
			N:     6,
			Delta: 0.05,
			MaxK:  4,
			Train: detect.TrainConfig{Epochs: 8},
		},
		Sampling: sampling.Config{Kappa: 300, AcceptF1: 0.3},
		Decision: decision.Config{Epochs: 25},
	}
}

// Shared returns the memoized fixture, failing the test on build errors.
func Shared(tb testing.TB) Fixture {
	tb.Helper()
	once.Do(func() {
		w, err := synth.NewWorld(synth.DefaultConfig(424242))
		if err != nil {
			buildE = err
			return
		}
		corpus := w.GenerateCorpus(synth.DefaultProfiles(0.25))
		cfg := SmallProfileConfig(424242)
		bundle, err := core.Profile(corpus, cfg)
		if err != nil {
			buildE = err
			return
		}
		fixture = Fixture{World: w, Corpus: corpus, Bundle: bundle}
	})
	if buildE != nil {
		tb.Fatalf("testutil: build fixture: %v", buildE)
	}
	return fixture
}

// Novelty scores frame f's novelty on bundle b the way a runtime does:
// the frame's scene embedding through b.NoveltyOfEmbedding.
func Novelty(b *core.Bundle, f *synth.Frame) float64 {
	return b.NoveltyOfEmbedding(b.Encoder.Embed(f))
}
