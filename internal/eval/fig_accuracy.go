package eval

import (
	"fmt"
	"io"

	"anole/internal/baselines"
	"anole/internal/core"
	"anole/internal/stats"
	"anole/internal/synth"
	"anole/internal/xrand"
)

// Fig8Series is one method's windowed-F1 sample set on one dataset.
type Fig8Series struct {
	Method string
	F1s    []float64
	Mean   float64
	Median float64
}

// Fig8Result carries the cross-scene F1 CDFs per source dataset (Fig. 8):
// for each of KITTI, BDD100k and SHD, the windowed F1 distribution of all
// five methods on the seen test split.
type Fig8Result struct {
	Window  int
	Dataset map[synth.DatasetID][]Fig8Series
}

// RunFig8 evaluates all methods on the seen test frames, windowed per
// clip, grouped by source dataset.
func RunFig8(l *Lab, window int) (Fig8Result, error) {
	if window <= 0 {
		window = 10
	}
	res := Fig8Result{Window: window, Dataset: make(map[synth.DatasetID][]Fig8Series)}
	for ds := synth.DatasetID(0); int(ds) < synth.NumDatasets; ds++ {
		clips := testClipsOf(l, ds)
		if len(clips) == 0 {
			continue
		}
		// Anole runs one runtime per dataset stream, clips in order.
		counts, err := methodCounts(l, clips)
		if err != nil {
			return Fig8Result{}, err
		}
		var series []Fig8Series
		for m, name := range MethodNames() {
			var f1s []float64
			for _, c := range counts[m] {
				f1s = append(f1s, windowedF1(c, window)...)
			}
			series = append(series, newFig8Series(name, f1s))
		}
		res.Dataset[ds] = series
	}
	return res, nil
}

// methodCounts runs every method over a run of clips and returns each
// one's per-frame counts: counts[m][c][i] is method MethodNames()[m] on
// frame i of clips[c]. The baselines score through baselines.Score; Anole
// is one fresh runtime that streams the clips in order.
func methodCounts(l *Lab, clips [][]*synth.Frame) ([][][]stats.PRF1, error) {
	var counts [][][]stats.PRF1
	for _, sel := range l.Selectors() {
		var perClip [][]stats.PRF1
		for _, frames := range clips {
			perClip = append(perClip, baselines.Score(sel, frames))
		}
		counts = append(counts, perClip)
	}
	rt, err := core.NewRuntime(l.Bundle, core.RuntimeConfig{CacheSlots: 5})
	if err != nil {
		return nil, err
	}
	var anole [][]stats.PRF1
	for _, frames := range clips {
		c := make([]stats.PRF1, len(frames))
		for i, f := range frames {
			res, err := rt.ProcessFrame(f)
			if err != nil {
				return nil, err
			}
			c[i] = res.Metrics
		}
		anole = append(anole, c)
	}
	return append(counts, anole), nil
}

// windowedF1 pools per-frame counts over consecutive windows of window
// frames (the last may be shorter) and returns each window's F1, the
// form Fig. 8 plots ("F1 score is calculated every ten frames"); window
// ≤ 0 means 10. A window of len(counts) pools the whole run.
func windowedF1(counts []stats.PRF1, window int) []float64 {
	if window <= 0 {
		window = 10
	}
	var out []float64
	for start := 0; start < len(counts); start += window {
		var agg stats.PRF1
		for _, c := range counts[start:min(start+window, len(counts))] {
			agg = agg.Add(c)
		}
		out = append(out, agg.F1)
	}
	return out
}

func newFig8Series(name string, f1s []float64) Fig8Series {
	return Fig8Series{
		Method: name,
		F1s:    f1s,
		Mean:   stats.Mean(f1s),
		Median: stats.Quantile(f1s, 0.5),
	}
}

// testClipsOf collects the test-split frame runs of every seen clip of a
// dataset.
func testClipsOf(l *Lab, ds synth.DatasetID) [][]*synth.Frame {
	var out [][]*synth.Frame
	for _, clip := range l.Corpus.SeenClips() {
		if clip.Dataset != ds {
			continue
		}
		var frames []*synth.Frame
		n := len(clip.Frames)
		for i, f := range clip.Frames {
			if synth.SplitOf(i, n, true) == synth.Test {
				frames = append(frames, f)
			}
		}
		if len(frames) > 0 {
			out = append(out, frames)
		}
	}
	return out
}

// Render writes per-dataset method summaries and decile CDF points.
func (r Fig8Result) Render(w io.Writer) {
	fmt.Fprintf(w, "Fig. 8 — cross-scene windowed F1 (window %d) per source dataset\n", r.Window)
	for ds := synth.DatasetID(0); int(ds) < synth.NumDatasets; ds++ {
		series, ok := r.Dataset[ds]
		if !ok {
			continue
		}
		fmt.Fprintf(w, "[%s]\n", ds)
		fmt.Fprintf(w, "%-8s %-8s %-8s %-8s %-8s %-8s\n", "method", "mean", "p25", "median", "p75", "n")
		for _, s := range series {
			fmt.Fprintf(w, "%-8s %-8.3f %-8.3f %-8.3f %-8.3f %-8d\n",
				s.Method, s.Mean, stats.Quantile(s.F1s, 0.25), s.Median,
				stats.Quantile(s.F1s, 0.75), len(s.F1s))
		}
	}
}

// Table3Row is one unseen clip's accuracy for every method.
type Table3Row struct {
	Label   string
	Dataset synth.DatasetID
	// F1 maps method name to the clip-level F1.
	F1 map[string]float64
}

// Table3Result is the new-scene experiment (Table III): per unseen clip
// and per method, clip-level F1, plus per-method means.
type Table3Result struct {
	Rows []Table3Row
	Mean map[string]float64
	// Best names the method with the highest mean.
	Best string
}

// RunTable3 evaluates every method on every unseen clip.
func RunTable3(l *Lab) (Table3Result, error) {
	unseen := l.Corpus.UnseenClips()
	if len(unseen) == 0 {
		return Table3Result{}, fmt.Errorf("eval: corpus has no unseen clips")
	}
	res := Table3Result{Mean: make(map[string]float64)}
	for _, clip := range unseen {
		row := Table3Row{
			Label:   fmt.Sprintf("%s #%d (%s)", clip.Dataset, clip.ID, dominantScene(clip)),
			Dataset: clip.Dataset,
			F1:      make(map[string]float64),
		}
		counts, err := methodCounts(l, [][]*synth.Frame{clip.Frames})
		if err != nil {
			return Table3Result{}, err
		}
		for m, name := range MethodNames() {
			row.F1[name] = windowedF1(counts[m][0], len(clip.Frames))[0]
			res.Mean[name] += row.F1[name]
		}
		res.Rows = append(res.Rows, row)
	}
	best, bestV := "", -1.0
	for m := range res.Mean {
		res.Mean[m] /= float64(len(res.Rows))
		if res.Mean[m] > bestV {
			best, bestV = m, res.Mean[m]
		}
	}
	res.Best = best
	return res, nil
}

// dominantScene names the most frequent semantic scene of a clip.
func dominantScene(clip *synth.Clip) string {
	counts := make(map[synth.Scene]int)
	for _, f := range clip.Frames {
		counts[f.Scene]++
	}
	var best synth.Scene
	bestN := -1
	for s, n := range counts {
		if n > bestN || (n == bestN && s.Index() < best.Index()) {
			best, bestN = s, n
		}
	}
	return best.String()
}

// Render writes the table with methods as columns.
func (r Table3Result) Render(w io.Writer) {
	fmt.Fprintln(w, "Table III — new-scene (unseen clips) F1 per method")
	fmt.Fprintf(w, "%-44s", "clip")
	for _, m := range MethodNames() {
		fmt.Fprintf(w, " %-7s", m)
	}
	fmt.Fprintln(w)
	for _, row := range r.Rows {
		fmt.Fprintf(w, "%-44s", row.Label)
		for _, m := range MethodNames() {
			fmt.Fprintf(w, " %-7.3f", row.F1[m])
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "%-44s", "mean")
	for _, m := range MethodNames() {
		fmt.Fprintf(w, " %-7.3f", r.Mean[m])
	}
	fmt.Fprintf(w, "\nbest: %s (paper: Anole, mean 0.487 vs SDM 0.466)\n", r.Best)
}

// Fig10Row is one real-world scenario's accuracy per method.
type Fig10Row struct {
	Scenario string
	F1       map[string]float64
}

// Fig10Result is the real-world experiment (Fig. 10): seven driving
// scenarios streamed through every method.
type Fig10Result struct {
	Rows []Fig10Row
	Mean map[string]float64
}

// RunFig10 generates seven held-out Shanghai-like scenarios (fixed
// attribute combinations never used as such in training clips need not
// hold; the scenarios exercise road conditions × time of day as §VI-F
// describes) and scores all methods.
func RunFig10(l *Lab, framesPerScenario int) (Fig10Result, error) {
	if framesPerScenario <= 0 {
		framesPerScenario = 100
	}
	scenarios := []struct {
		name string
		s    synth.Scene
	}{
		{"highway/day", synth.Scene{Weather: synth.Clear, Location: synth.Highway, Time: synth.Daytime}},
		{"highway/night", synth.Scene{Weather: synth.Clear, Location: synth.Highway, Time: synth.Night}},
		{"urban/day", synth.Scene{Weather: synth.Clear, Location: synth.Urban, Time: synth.Daytime}},
		{"urban/night", synth.Scene{Weather: synth.Clear, Location: synth.Urban, Time: synth.Night}},
		{"tunnel/day", synth.Scene{Weather: synth.Clear, Location: synth.Tunnel, Time: synth.Daytime}},
		{"overcast/urban/dusk", synth.Scene{Weather: synth.Overcast, Location: synth.Urban, Time: synth.DawnDusk}},
		{"rainy/residential/day", synth.Scene{Weather: synth.Rainy, Location: synth.Residential, Time: synth.Daytime}},
	}
	rng := xrand.NewLabeled(l.Config.Seed, "fig10")
	res := Fig10Result{Mean: make(map[string]float64)}
	for si, sc := range scenarios {
		clip := l.World.GenerateScenarioClip(synth.SHD, 1000+si, sc.s, framesPerScenario, 0.9, rng.Split(uint64(si)))
		row := Fig10Row{Scenario: sc.name, F1: make(map[string]float64)}
		counts, err := methodCounts(l, [][]*synth.Frame{clip.Frames})
		if err != nil {
			return Fig10Result{}, err
		}
		for m, name := range MethodNames() {
			row.F1[name] = windowedF1(counts[m][0], len(clip.Frames))[0]
			res.Mean[name] += row.F1[name] / float64(len(scenarios))
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// Render writes one row per scenario.
func (r Fig10Result) Render(w io.Writer) {
	fmt.Fprintln(w, "Fig. 10 — real-world scenarios (simulated UAV/dashcam streams)")
	fmt.Fprintf(w, "%-24s", "scenario")
	for _, m := range MethodNames() {
		fmt.Fprintf(w, " %-7s", m)
	}
	fmt.Fprintln(w)
	for _, row := range r.Rows {
		fmt.Fprintf(w, "%-24s", row.Scenario)
		for _, m := range MethodNames() {
			fmt.Fprintf(w, " %-7.3f", row.F1[m])
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "%-24s", "mean")
	for _, m := range MethodNames() {
		fmt.Fprintf(w, " %-7.3f", r.Mean[m])
	}
	fmt.Fprintln(w)
}
