package eval

import (
	"fmt"
	"io"

	"anole/internal/sampling"
	"anole/internal/stats"
	"anole/internal/synth"
	"anole/internal/xrand"
)

// Fig3Result compares random against adaptive (Thompson) scene sampling:
// normalized per-model selection counts and their Gini imbalance.
type Fig3Result struct {
	Models         int
	Random         []float64
	Adaptive       []float64
	GiniRandom     float64
	GiniAdaptive   float64
	RandomAccept   int
	AdaptiveAccept int
}

// RunFig3 reproduces Fig. 3 using the lab's repertoire and its training
// pools. kappa caps accepted samples (0 selects the paper-like 800).
func RunFig3(l *Lab, kappa int) (Fig3Result, error) {
	if kappa <= 0 {
		kappa = 800
	}
	train := l.Corpus.Frames(synth.Train)
	pools := make([]sampling.Pool, len(l.Bundle.Detectors))
	for i := range pools {
		frames := poolFramesFor(l, i, train)
		if len(frames) == 0 {
			frames = train
		}
		pools[i] = sampling.Pool{ModelIdx: i, Frames: frames}
	}
	cfg := sampling.Config{Kappa: kappa, AcceptF1: l.Config.Profile.Sampling.AcceptF1}
	// Both samplers probe the same models on the same pools: score them
	// once.
	table, err := sampling.NewTable(l.Bundle.Detectors, pools)
	if err != nil {
		return Fig3Result{}, err
	}
	cfg.RNG = xrand.NewLabeled(l.Config.Seed, "fig3-random")
	random := table.Random(cfg)
	cfg.RNG = xrand.NewLabeled(l.Config.Seed, "fig3-adaptive")
	adaptive := table.Adaptive(cfg)
	return Fig3Result{
		Models:         len(pools),
		Random:         random.NormalizedCounts(),
		Adaptive:       adaptive.NormalizedCounts(),
		GiniRandom:     stats.Gini(toFloats(random.Counts)),
		GiniAdaptive:   stats.Gini(toFloats(adaptive.Counts)),
		RandomAccept:   len(random.Samples),
		AdaptiveAccept: len(adaptive.Samples),
	}, nil
}

// Render writes the figure as text rows.
func (r Fig3Result) Render(w io.Writer) {
	fmt.Fprintf(w, "Fig. 3 — sampling balance over %d compressed models (normalized |S_i|)\n", r.Models)
	fmt.Fprintf(w, "%-8s %-10s %-10s\n", "model", "random", "adaptive")
	for i := 0; i < r.Models; i++ {
		fmt.Fprintf(w, "M_%-6d %-10.3f %-10.3f\n", i+1, r.Random[i], r.Adaptive[i])
	}
	fmt.Fprintf(w, "Gini imbalance: random %.3f, adaptive %.3f (lower is more balanced)\n",
		r.GiniRandom, r.GiniAdaptive)
}

func poolFramesFor(l *Lab, modelIdx int, frames []*synth.Frame) []*synth.Frame {
	scenes := make(map[int]bool)
	for _, s := range l.Bundle.Infos[modelIdx].TrainScenes {
		scenes[s] = true
	}
	var out []*synth.Frame
	for _, f := range frames {
		if scenes[f.Scene.Index()] {
			out = append(out, f)
		}
	}
	return out
}

func toFloats(xs []int) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = float64(x)
	}
	return out
}
