package eval

import (
	"bytes"
	"io"
	"slices"
	"strings"
	"sync"
	"testing"

	"anole/internal/baselines"
	"anole/internal/core"
	"anole/internal/synth"
)

var (
	labOnce sync.Once
	labFix  *Lab
	labErr  error
)

func quickLab(t *testing.T) *Lab {
	t.Helper()
	labOnce.Do(func() {
		labFix, labErr = NewLab(QuickLabConfig(777))
	})
	if labErr != nil {
		t.Fatalf("build lab: %v", labErr)
	}
	return labFix
}

func renderNonEmpty(t *testing.T, render func(io.Writer)) string {
	t.Helper()
	var buf bytes.Buffer
	render(&buf)
	out := buf.String()
	if len(out) == 0 {
		t.Fatal("render produced nothing")
	}
	return out
}

func TestNewLabShapes(t *testing.T) {
	lab := quickLab(t)
	if lab.Bundle.NumModels() < 2 {
		t.Fatalf("repertoire %d", lab.Bundle.NumModels())
	}
	if len(lab.Selectors()) != 4 {
		t.Fatal("expected 4 baselines")
	}
	if lab.Corpus.TotalFrames() == 0 {
		t.Fatal("empty corpus")
	}
	names := MethodNames()
	if len(names) != 5 || names[4] != "Anole" {
		t.Fatalf("method names: %v", names)
	}
}

func TestRunFig3(t *testing.T) {
	lab := quickLab(t)
	res, err := RunFig3(lab, 200)
	if err != nil {
		t.Fatal(err)
	}
	if res.Models != lab.Bundle.NumModels() {
		t.Fatalf("models = %d", res.Models)
	}
	if len(res.Adaptive) != res.Models || len(res.Random) != res.Models {
		t.Fatal("count vectors wrong length")
	}
	// The headline property: adaptive sampling is more balanced.
	if res.GiniAdaptive >= res.GiniRandom {
		t.Fatalf("adaptive Gini %.3f not below random %.3f", res.GiniAdaptive, res.GiniRandom)
	}
	out := renderNonEmpty(t, res.Render)
	if !strings.Contains(out, "Gini") {
		t.Fatal("render missing summary")
	}
}

func TestRunFig4a(t *testing.T) {
	lab := quickLab(t)
	res, err := RunFig4a(lab, 3, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.DeepMs) != 10 || len(res.TinyMs) != 10 {
		t.Fatal("series length wrong")
	}
	// First-frame spike: frame 1 must dwarf frame 2 for both models.
	if res.DeepMs[0] <= res.DeepMs[1]*2 || res.TinyMs[0] <= res.TinyMs[1]*2 {
		t.Fatalf("no first-frame spike: deep %v/%v tiny %v/%v",
			res.DeepMs[0], res.DeepMs[1], res.TinyMs[0], res.TinyMs[1])
	}
	// Steady state: deep slower than tiny.
	if res.SpeedUp <= 1 {
		t.Fatalf("speedup %v", res.SpeedUp)
	}
	renderNonEmpty(t, res.Render)
}

func TestRunFig4b(t *testing.T) {
	lab := quickLab(t)
	res, err := RunFig4b(lab, 4)
	if err != nil {
		t.Fatal(err)
	}
	if res.Frames == 0 {
		t.Fatal("no frames streamed")
	}
	// Sorted descending; shares sum to ~1.
	var sum float64
	for i, v := range res.Ratio {
		if i > 0 && v > res.Ratio[i-1] {
			t.Fatal("ratios not sorted")
		}
		sum += v
	}
	if sum < 0.99 || sum > 1.01 {
		t.Fatalf("ratio sum %v", sum)
	}
	// Long tail: top-3 should dominate.
	if res.Top3Share < 0.5 {
		t.Fatalf("top-3 share %v, expected a concentrated utility distribution", res.Top3Share)
	}
	renderNonEmpty(t, res.Render)
}

func TestRunFig5(t *testing.T) {
	lab := quickLab(t)
	res := RunFig5(lab)
	if res.Frames != lab.Corpus.TotalFrames() {
		t.Fatalf("frames %d vs %d", res.Frames, lab.Corpus.TotalFrames())
	}
	if len(res.Brightness) == 0 || len(res.Contrast) == 0 || len(res.Objects) == 0 || len(res.AreaRatio) == 0 {
		t.Fatal("empty CDFs")
	}
	if last := res.Brightness[len(res.Brightness)-1].Frac; last != 1 {
		t.Fatalf("brightness CDF ends at %v", last)
	}
	renderNonEmpty(t, res.Render)
}

func TestRunFig6(t *testing.T) {
	lab := quickLab(t)
	res := RunFig6(lab, 150)
	if res.SceneCM == nil || res.DecisionCM == nil {
		t.Fatal("missing matrices")
	}
	// M_scene must be much better than chance on its classes.
	chance := 1.0 / float64(res.SceneCM.K)
	if res.SceneAccuracy < 3*chance {
		t.Fatalf("scene accuracy %.3f vs chance %.3f", res.SceneAccuracy, chance)
	}
	if res.DecisionCM.K != lab.Bundle.NumModels() {
		t.Fatal("decision matrix size wrong")
	}
	renderNonEmpty(t, res.Render)
}

func TestRunFig7a(t *testing.T) {
	lab := quickLab(t)
	res, err := RunFig7a(lab, 30)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Clips) != 6 {
		t.Fatalf("clips = %d, want 6 (T1-T6)", len(res.Clips))
	}
	if res.MeanDuration <= 0 {
		t.Fatal("mean duration not positive")
	}
	if res.FracUnder40 < 0 || res.FracUnder40 > 1 {
		t.Fatalf("fraction under 40: %v", res.FracUnder40)
	}
	renderNonEmpty(t, res.Render)
}

func TestRunFig7b(t *testing.T) {
	lab := quickLab(t)
	res, err := RunFig7b(lab, 5, 30)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 5 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	// Shape: the largest cache must miss no more than the smallest.
	if res.Rows[4].MissRate > res.Rows[0].MissRate+1e-9 {
		t.Fatalf("miss rate not non-increasing: %v vs %v", res.Rows[4].MissRate, res.Rows[0].MissRate)
	}
	for _, row := range res.Rows {
		if row.F1 < 0 || row.F1 > 1 || row.MissRate < 0 || row.MissRate > 1 {
			t.Fatalf("row out of range: %+v", row)
		}
	}
	renderNonEmpty(t, res.Render)
}

func TestRunFig8(t *testing.T) {
	lab := quickLab(t)
	res, err := RunFig8(lab, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Dataset) == 0 {
		t.Fatal("no datasets evaluated")
	}
	var anoleMean, ssmMean float64
	var n int
	for ds, series := range res.Dataset {
		if len(series) != 5 {
			t.Fatalf("%v: %d methods", ds, len(series))
		}
		byName := make(map[string]Fig8Series)
		for _, s := range series {
			byName[s.Method] = s
			if len(s.F1s) == 0 {
				t.Fatalf("%v/%s: no windows", ds, s.Method)
			}
		}
		anoleMean += byName["Anole"].Mean
		ssmMean += byName["SSM"].Mean
		n++
	}
	// The paper's headline cross-scene ordering: Anole above the single
	// compressed model, averaged across datasets.
	if anoleMean/float64(n) <= ssmMean/float64(n) {
		t.Fatalf("Anole mean %.3f not above SSM %.3f", anoleMean/float64(n), ssmMean/float64(n))
	}
	renderNonEmpty(t, res.Render)
}

func TestRunTable2(t *testing.T) {
	lab := quickLab(t)
	res := RunTable2(lab)
	if len(res.Rows) != 4 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	// Deep model is the most expensive; decision head the cheapest.
	if res.Rows[3].FLOPs <= res.Rows[0].FLOPs {
		t.Fatal("deep not above compressed")
	}
	if res.Rows[2].FLOPs >= res.Rows[1].FLOPs {
		t.Fatal("decision head should be cheaper than encoder")
	}
	renderNonEmpty(t, res.Render)
}

func TestRunTable3(t *testing.T) {
	lab := quickLab(t)
	res, err := RunTable3(lab)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) == 0 {
		t.Fatal("no unseen clips")
	}
	for _, row := range res.Rows {
		if len(row.F1) != 5 {
			t.Fatalf("row has %d methods", len(row.F1))
		}
	}
	if len(res.Mean) != 5 || res.Best == "" {
		t.Fatalf("means: %v best: %q", res.Mean, res.Best)
	}
	renderNonEmpty(t, res.Render)
}

// TestBaselineClipWindows windows each baseline's per-frame counts over
// 35 test frames: four windows at 10 (three full, a five-frame tail), the
// same at the default window, every F1 in [0, 1], and methodCounts hands
// out exactly what baselines.Score gives.
func TestBaselineClipWindows(t *testing.T) {
	lab := quickLab(t)
	frames := lab.Corpus.Frames(synth.Test)
	if len(frames) < 35 {
		t.Fatalf("%d test frames, want at least 35", len(frames))
	}
	frames = frames[:35]
	counts, err := methodCounts(lab, [][]*synth.Frame{frames})
	if err != nil {
		t.Fatal(err)
	}
	for m, sel := range lab.Selectors() {
		name := MethodNames()[m]
		c := baselines.Score(sel, frames)
		if !slices.Equal(counts[m][0], c) {
			t.Fatalf("%s: methodCounts differs from baselines.Score", name)
		}
		for _, window := range []int{10, 0} {
			f1s := windowedF1(c, window)
			if len(f1s) != 4 {
				t.Fatalf("%s window %d: %d windows, want 4", name, window, len(f1s))
			}
			for _, v := range f1s {
				if v < 0 || v > 1 {
					t.Fatalf("%s window %d: F1 %v", name, window, v)
				}
			}
		}
	}
}

// TestAnoleClipWindows streams a 25-frame clip through methodCounts'
// Anole leg: its counts are a fresh runtime's per-frame metrics in frame
// order, and windowed at 10 they give three windows with F1 in [0, 1].
func TestAnoleClipWindows(t *testing.T) {
	lab := quickLab(t)
	frames := lab.Corpus.Frames(synth.Test)[:25]
	counts, err := methodCounts(lab, [][]*synth.Frame{frames})
	if err != nil {
		t.Fatal(err)
	}
	anole := counts[len(counts)-1][0]
	rt, err := core.NewRuntime(lab.Bundle, core.RuntimeConfig{CacheSlots: 5})
	if err != nil {
		t.Fatal(err)
	}
	for i, f := range frames {
		res, err := rt.ProcessFrame(f)
		if err != nil {
			t.Fatal(err)
		}
		if anole[i] != res.Metrics {
			t.Fatalf("frame %d: counts %+v, runtime %+v", i, anole[i], res.Metrics)
		}
	}
	f1s := windowedF1(anole, 10)
	if len(f1s) != 3 {
		t.Fatalf("windows = %d, want 3", len(f1s))
	}
	for _, v := range f1s {
		if v < 0 || v > 1 {
			t.Fatalf("window F1 %v", v)
		}
	}
}

func TestRunTable4(t *testing.T) {
	lab := quickLab(t)
	res := RunTable4(lab)
	if len(res.Rows) != 9 {
		t.Fatalf("rows = %d, want 3 models x 3 devices", len(res.Rows))
	}
	byKey := make(map[string]Table4Row)
	for _, row := range res.Rows {
		byKey[row.Model+"|"+row.Device] = row
		if row.LatencyMs <= 0 || row.LoadMemMB <= 0 {
			t.Fatalf("degenerate row: %+v", row)
		}
	}
	// Table IV shape: deep slower than compressed everywhere; TX2 NX
	// faster than Nano.
	for _, dev := range []string{"Jetson Nano", "Jetson TX2 NX"} {
		deep := byKey["deep detector (YOLOv3)|"+dev]
		tiny := byKey["compressed detector (tiny)|"+dev]
		if deep.LatencyMs <= tiny.LatencyMs {
			t.Fatalf("%s: deep %.1fms not above tiny %.1fms", dev, deep.LatencyMs, tiny.LatencyMs)
		}
	}
	nano := byKey["compressed detector (tiny)|Jetson Nano"]
	tx2 := byKey["compressed detector (tiny)|Jetson TX2 NX"]
	if tx2.LatencyMs >= nano.LatencyMs {
		t.Fatal("TX2 should be faster than Nano")
	}
	renderNonEmpty(t, res.Render)
}

func TestRunFig10(t *testing.T) {
	lab := quickLab(t)
	res, err := RunFig10(lab, 40)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 7 {
		t.Fatalf("scenarios = %d, want 7", len(res.Rows))
	}
	for _, row := range res.Rows {
		if len(row.F1) != 5 {
			t.Fatalf("scenario %s has %d methods", row.Scenario, len(row.F1))
		}
	}
	renderNonEmpty(t, res.Render)
}

func TestRunFig11(t *testing.T) {
	lab := quickLab(t)
	res, err := RunFig11(lab, 100)
	if err != nil {
		t.Fatal(err)
	}
	modes := 4
	if len(res.Rows) != modes*5 {
		t.Fatalf("rows = %d, want %d", len(res.Rows), modes*5)
	}
	// Anole must draw less power than SDM at the top mode.
	if res.AnolePowerSavingVsSDM <= 0 {
		t.Fatalf("Anole power saving vs SDM = %v, want positive", res.AnolePowerSavingVsSDM)
	}
	// FPS of Anole should beat SDM at every mode (smaller models).
	perMode := make(map[string]map[string]Fig11Row)
	for _, row := range res.Rows {
		if perMode[row.Mode] == nil {
			perMode[row.Mode] = make(map[string]Fig11Row)
		}
		perMode[row.Mode][row.Method] = row
	}
	for mode, rows := range perMode {
		if rows["Anole"].FPS <= rows["SDM"].FPS {
			t.Fatalf("%s: Anole FPS %v not above SDM %v", mode, rows["Anole"].FPS, rows["SDM"].FPS)
		}
	}
	renderNonEmpty(t, res.Render)
}

func TestRunAblationCache(t *testing.T) {
	lab := quickLab(t)
	res, err := RunAblationCache(lab, 3, 30)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	seen := make(map[string]bool)
	for _, row := range res.Rows {
		seen[row.Policy] = true
	}
	if !seen["LFU"] || !seen["LRU"] || !seen["FIFO"] {
		t.Fatalf("policies: %v", seen)
	}
	renderNonEmpty(t, res.Render)
}

func TestRunAblationRepertoire(t *testing.T) {
	lab := quickLab(t)
	res, err := RunAblationRepertoire(lab, []float64{0.05, 0.9}, []int{3})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	// A permissive delta banks models; an absurd one banks none.
	if res.Rows[0].Banked == 0 {
		t.Fatal("permissive delta banked nothing")
	}
	if res.Rows[1].Banked != 0 {
		t.Fatalf("delta 0.9 banked %d models", res.Rows[1].Banked)
	}
	renderNonEmpty(t, res.Render)
}

func TestSynthClipsStructure(t *testing.T) {
	lab := quickLab(t)
	clips := lab.synthClips(20)
	if len(clips) != 6 {
		t.Fatalf("clips = %d", len(clips))
	}
	for i, frames := range clips {
		if len(frames) == 0 {
			t.Fatalf("T%d empty", i+1)
		}
	}
}

func TestQuickLabDeterministic(t *testing.T) {
	// Two labs with the same seed agree on corpus shape and repertoire.
	a, err := NewLab(QuickLabConfig(31337))
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewLab(QuickLabConfig(31337))
	if err != nil {
		t.Fatal(err)
	}
	if a.Bundle.NumModels() != b.Bundle.NumModels() {
		t.Fatal("repertoire sizes differ")
	}
	fa := a.Corpus.Frames(synth.Test)[0]
	fb := b.Corpus.Frames(synth.Test)[0]
	sa, sb := a.Bundle.Decision.Scores(fa), b.Bundle.Decision.Scores(fb)
	for i := range sa {
		if sa[i] != sb[i] {
			t.Fatal("decision models differ across identical seeds")
		}
	}
}

func TestRunContinual(t *testing.T) {
	lab := quickLab(t)
	res, err := RunContinual(lab, 100)
	if err != nil {
		t.Fatal(err)
	}
	if res.FlagRate <= 0 {
		t.Fatal("novel scene should trigger uncertainty flags")
	}
	if res.AfterF1 <= res.BeforeF1 {
		t.Fatalf("expansion did not improve novel-scene F1: %v -> %v", res.BeforeF1, res.AfterF1)
	}
	if res.NewModelShare <= 0.3 {
		t.Fatalf("new specialist barely used: %v", res.NewModelShare)
	}
	renderNonEmpty(t, res.Render)
}

func TestRunSelection(t *testing.T) {
	lab := quickLab(t)
	res, err := RunSelection(lab, 100)
	if err != nil {
		t.Fatal(err)
	}
	if res.Frames == 0 {
		t.Fatal("no frames")
	}
	// Structural orderings: the oracle bounds every other selector.
	for name, v := range map[string]float64{
		"scene-oracle": res.SceneOracle,
		"decision":     res.DecisionTop1,
		"runtime":      res.Runtime,
	} {
		if v > res.Oracle+1e-9 {
			t.Fatalf("%s (%v) above oracle (%v)", name, v, res.Oracle)
		}
	}
	if res.Top1Agreement < 0 || res.Top1Agreement > 1 {
		t.Fatalf("agreement %v", res.Top1Agreement)
	}
	renderNonEmpty(t, res.Render)
}

func TestRunThermal(t *testing.T) {
	lab := quickLab(t)
	res, err := RunThermal(lab, 2500)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	byName := make(map[string]ThermalRow)
	for _, row := range res.Rows {
		byName[row.Method] = row
	}
	sdm, anole := byName["SDM"], byName["Anole"]
	if sdm.Heat <= 1 || sdm.Throttle >= 1 {
		t.Fatalf("sustained deep load should throttle: %+v", sdm)
	}
	if anole.Heat >= sdm.Heat {
		t.Fatalf("Anole (%v) should run cooler than SDM (%v)", anole.Heat, sdm.Heat)
	}
	if anole.Throttle < 1 {
		t.Fatalf("Anole throttled: %+v", anole)
	}
	renderNonEmpty(t, res.Render)
}

func TestRunQuantize(t *testing.T) {
	lab := quickLab(t)
	res, err := RunQuantize(lab, []int{8, 2}, 80)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	full, q8, q2 := res.Rows[0], res.Rows[1], res.Rows[2]
	if full.Bits != 0 || q8.Bits != 8 || q2.Bits != 2 {
		t.Fatalf("row order: %+v", res.Rows)
	}
	if q8.Compression < 6 || q8.Compression > 9 {
		t.Fatalf("8-bit compression %v, want ~8x", q8.Compression)
	}
	// 8-bit must stay within a few F1 points of full precision;
	// 2-bit must cost clearly more than 8-bit.
	if q8.F1 < full.F1-0.05 {
		t.Fatalf("8-bit F1 %v too far below full %v", q8.F1, full.F1)
	}
	if q2.F1 >= q8.F1 {
		t.Fatalf("2-bit (%v) should lose to 8-bit (%v)", q2.F1, q8.F1)
	}
	renderNonEmpty(t, res.Render)
}

func TestRunHysteresis(t *testing.T) {
	lab := quickLab(t)
	res, err := RunHysteresis(lab, 300, []int{1, 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	if res.Rows[1].Switches >= res.Rows[0].Switches {
		t.Fatalf("hysteresis 4 switches %d not below hysteresis 1's %d",
			res.Rows[1].Switches, res.Rows[0].Switches)
	}
	renderNonEmpty(t, res.Render)
}

func TestRunOffload(t *testing.T) {
	lab := quickLab(t)
	res, err := RunOffload(lab, 400, []float64{1, 0})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	stable, churny := res.Rows[0], res.Rows[1]
	// A perfect link never drops; an unstable one does.
	if stable.DownFrac != 0 {
		t.Fatalf("stable link down %v", stable.DownFrac)
	}
	if churny.DownFrac <= 0 {
		t.Fatal("unstable link never went down")
	}
	// Instability raises deadline misses and lowers delivered accuracy.
	if churny.OffloadMissPct <= stable.OffloadMissPct {
		t.Fatalf("miss%% did not grow with instability: %v vs %v",
			churny.OffloadMissPct, stable.OffloadMissPct)
	}
	if churny.OffloadF1 >= stable.OffloadF1 {
		t.Fatalf("F1 did not drop with instability: %v vs %v",
			churny.OffloadF1, stable.OffloadF1)
	}
	// Local Anole is flat and fast: only the cold-start frame (model
	// load, the Fig. 4a spike) may exceed the deadline.
	if res.AnoleMissPct > 100.0/float64(res.Frames)+1e-9 {
		t.Fatalf("local path missed deadlines beyond cold start: %v%%", res.AnoleMissPct)
	}
	if res.AnoleP99Ms >= stable.OffloadMeanMs {
		t.Fatalf("local p99 %vms should beat offload mean %vms",
			res.AnoleP99Ms, stable.OffloadMeanMs)
	}
	renderNonEmpty(t, res.Render)
}
