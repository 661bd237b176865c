package eval

import (
	"fmt"
	"io"
	"math"

	"anole/internal/core"
	"anole/internal/detect"
	"anole/internal/stats"
	"anole/internal/synth"
)

// SelectionResult decomposes where Anole's accuracy comes from and where
// selection loses it, on the seen test split:
//
//	Oracle        — the per-frame repertoire-model assignment with the
//	                highest pooled F1 (selection upper bound)
//	SceneOracle   — best-validated model among the clusters containing the
//	                frame's true scene (what perfect scene knowledge buys)
//	DecisionTop1  — the decision model's top pick, no cache constraint
//	Runtime       — the full OMI loop (decision + LFU cache fallback)
//	SDM           — the deep baseline, for scale
//
// The gap Oracle−Runtime is the selection+cache cost; DecisionTop1 vs
// Runtime isolates the cache's effect (a sticky cache can even beat the
// raw top-1 by smoothing decision noise).
type SelectionResult struct {
	Frames       int
	Oracle       float64
	SceneOracle  float64
	DecisionTop1 float64
	Runtime      float64
	SDM          float64
	// Top1Agreement is how often the decision's top pick is the model
	// with the frame's highest per-frame F1 (the first such model on a
	// tie); this is a per-frame notion, independent of the pooled
	// Oracle's assignment.
	Top1Agreement float64
}

// RunSelection computes the decomposition over at most maxFrames test
// frames (0 = all; the oracle scores every repertoire model per frame).
func RunSelection(l *Lab, maxFrames int) (SelectionResult, error) {
	test := l.Corpus.Frames(synth.Test)
	if len(test) == 0 {
		return SelectionResult{}, fmt.Errorf("eval: no test frames")
	}
	if maxFrames > 0 && len(test) > maxFrames {
		test = test[:maxFrames]
	}

	// Best-validated model per scene (cluster membership).
	bestForScene := make(map[int]int)
	for i, info := range l.Bundle.Infos {
		for _, s := range info.TrainScenes {
			if cur, ok := bestForScene[s]; !ok || l.Bundle.Infos[i].ValF1 > l.Bundle.Infos[cur].ValF1 {
				bestForScene[s] = i
			}
		}
	}

	rt, err := core.NewRuntime(l.Bundle, core.RuntimeConfig{CacheSlots: 5})
	if err != nil {
		return SelectionResult{}, err
	}

	// scores[m][i] is repertoire model m's counts on test frame i; the
	// table's last row is SDM's.
	n := len(l.Bundle.Detectors)
	table := detect.ScoreTable(append(l.Bundle.Detectors[:n:n], l.SDM.Detectors()[0]), test)
	scores, sdm := table[:n], table[n]

	var sceneOracle, decTop, runtime, sdmAgg stats.PRF1
	agree := 0
	for i, f := range test {
		sdmAgg = sdmAgg.Add(sdm[i])
		bestIdx, bestF1 := -1, -1.0
		for m := range scores {
			if f1 := scores[m][i].F1; f1 > bestF1 {
				bestIdx, bestF1 = m, f1
			}
		}

		if mi, ok := bestForScene[f.Scene.Index()]; ok {
			sceneOracle = sceneOracle.Add(scores[mi][i])
		}

		top, _ := l.Bundle.Decision.Best(f)
		decTop = decTop.Add(scores[top][i])
		if top == bestIdx {
			agree++
		}

		res, err := rt.ProcessFrame(f)
		if err != nil {
			return SelectionResult{}, err
		}
		runtime = runtime.Add(res.Metrics)
	}

	return SelectionResult{
		Frames:        len(test),
		Oracle:        pooledOracle(scores).F1,
		SceneOracle:   sceneOracle.F1,
		DecisionTop1:  decTop.F1,
		Runtime:       runtime.F1,
		SDM:           sdmAgg.F1,
		Top1Agreement: float64(agree) / float64(len(test)),
	}, nil
}

// pooledOracle returns the pooled counts of the per-frame model
// assignment that maximises pooled F1, where scores[m][i] is model m's
// counts on frame i. Pooled F1 is the ratio Σ2TP / Σ(2TP+FP+FN), and
// Dinkelbach iteration maximises it exactly: at the current best ratio
// λ = a/b, every frame takes the model maximising 2TP·b − a·(2TP+FP+FN)
// (integer arithmetic, so no rounding), and the picks' pooled ratio
// becomes the next λ. λ rises strictly until no assignment gains, at
// which point none has a higher ratio.
func pooledOracle(scores [][]stats.PRF1) stats.PRF1 {
	var best stats.PRF1
	if len(scores) == 0 {
		return best
	}
	a, b := int64(0), int64(1)
	for {
		var tp, fp, fn int
		var gain int64
		for i := range scores[0] {
			var pick stats.PRF1
			pickGain := int64(math.MinInt64)
			for m := range scores {
				s := scores[m][i]
				if g := int64(2*s.TP)*b - a*int64(2*s.TP+s.FP+s.FN); g > pickGain {
					pick, pickGain = s, g
				}
			}
			tp, fp, fn = tp+pick.TP, fp+pick.FP, fn+pick.FN
			gain += pickGain
		}
		if gain <= 0 {
			return best
		}
		best = stats.ComputePRF1(tp, fp, fn)
		a, b = int64(2*tp), int64(2*tp+fp+fn)
	}
}

// Render writes the decomposition rows.
func (r SelectionResult) Render(w io.Writer) {
	fmt.Fprintf(w, "Selection decomposition over %d seen test frames\n", r.Frames)
	fmt.Fprintf(w, "%-30s %-8s\n", "selector", "F1")
	fmt.Fprintf(w, "%-30s %-8.3f\n", "oracle (best pooled F1)", r.Oracle)
	fmt.Fprintf(w, "%-30s %-8.3f\n", "scene-membership best", r.SceneOracle)
	fmt.Fprintf(w, "%-30s %-8.3f\n", "decision top-1 (no cache)", r.DecisionTop1)
	fmt.Fprintf(w, "%-30s %-8.3f\n", "Anole runtime (cache 5)", r.Runtime)
	fmt.Fprintf(w, "%-30s %-8.3f\n", "SDM (reference)", r.SDM)
	fmt.Fprintf(w, "decision top-1 matches oracle on %.1f%% of frames\n", 100*r.Top1Agreement)
}
