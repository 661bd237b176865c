package anole_test

// One benchmark per table and figure of the paper's evaluation section
// (the per-experiment index of DESIGN.md §5). Each benchmark regenerates
// its artifact through the internal/eval harness against a shared
// paper-scale lab (built once per run) and reports the headline scalar as
// a benchmark metric, so `go test -bench=.` doubles as the reproduction
// run. cmd/anole-bench renders the same artifacts as human-readable rows.

import (
	"io"
	"sync"
	"testing"

	"anole/internal/core"
	"anole/internal/eval"
	"anole/internal/stats"
	"anole/internal/synth"
)

const benchSeed = 20240777

var (
	benchOnce sync.Once
	benchLab  *eval.Lab
	benchErr  error
)

// lab returns the shared paper-scale lab, building it on first use
// (outside the timed region of each benchmark).
func lab(b *testing.B) *eval.Lab {
	b.Helper()
	benchOnce.Do(func() {
		cfg := eval.DefaultLabConfig(benchSeed)
		benchLab, benchErr = eval.NewLab(cfg)
	})
	if benchErr != nil {
		b.Fatalf("build lab: %v", benchErr)
	}
	return benchLab
}

func BenchmarkFig3_AdaptiveSampling(b *testing.B) {
	l := lab(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := eval.RunFig3(l, 800)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			res.Render(io.Discard)
			b.ReportMetric(res.GiniRandom, "gini-random")
			b.ReportMetric(res.GiniAdaptive, "gini-adaptive")
		}
	}
}

func BenchmarkFig4a_ColdStartLatency(b *testing.B) {
	l := lab(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := eval.RunFig4a(l, 5, 20)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			res.Render(io.Discard)
			b.ReportMetric(res.DeepMs[0], "first-frame-deep-ms")
			b.ReportMetric(res.TinyMs[0], "first-frame-tiny-ms")
			b.ReportMetric(res.SpeedUp, "deep/tiny-latency")
		}
	}
}

func BenchmarkFig4b_ModelUtility(b *testing.B) {
	l := lab(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := eval.RunFig4b(l, 5)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			res.Render(io.Discard)
			b.ReportMetric(res.Top3Share, "top3-share")
			b.ReportMetric(res.Alpha, "powerlaw-alpha")
		}
	}
}

func BenchmarkFig5_DatasetCDFs(b *testing.B) {
	l := lab(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := eval.RunFig5(l)
		if i == 0 {
			res.Render(io.Discard)
			b.ReportMetric(float64(res.Frames), "frames")
		}
	}
}

func BenchmarkFig6_ConfusionMatrices(b *testing.B) {
	l := lab(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := eval.RunFig6(l, 300)
		if i == 0 {
			res.Render(io.Discard)
			b.ReportMetric(res.SceneAccuracy, "scene-acc")
			b.ReportMetric(res.DecisionDiagonal, "decision-diag")
		}
	}
}

func BenchmarkFig7a_SceneDuration(b *testing.B) {
	l := lab(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := eval.RunFig7a(l, 100)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			res.Render(io.Discard)
			b.ReportMetric(res.MeanDuration, "mean-duration-frames")
			b.ReportMetric(res.FracUnder40, "frac-under-40")
		}
	}
}

func BenchmarkFig7b_CacheSweep(b *testing.B) {
	l := lab(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := eval.RunFig7b(l, 8, 100)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			res.Render(io.Discard)
			b.ReportMetric(res.Rows[0].MissRate, "miss-at-1")
			b.ReportMetric(res.Rows[4].MissRate, "miss-at-5")
			b.ReportMetric(res.Rows[4].F1, "f1-at-5")
		}
	}
}

func BenchmarkFig8_CrossScene(b *testing.B) {
	l := lab(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := eval.RunFig8(l, 10)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			res.Render(io.Discard)
			var anole, sdm float64
			var n int
			for _, series := range res.Dataset {
				for _, s := range series {
					switch s.Method {
					case "Anole":
						anole += s.Mean
					case "SDM":
						sdm += s.Mean
					}
				}
				n++
			}
			b.ReportMetric(anole/float64(n), "anole-mean-f1")
			b.ReportMetric(sdm/float64(n), "sdm-mean-f1")
		}
	}
}

func BenchmarkTable2_ModelSpecs(b *testing.B) {
	l := lab(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := eval.RunTable2(l)
		if i == 0 {
			res.Render(io.Discard)
			b.ReportMetric(float64(res.Rows[3].FLOPs)/float64(res.Rows[0].FLOPs), "deep/tiny-flops")
		}
	}
}

func BenchmarkTable3_NewScene(b *testing.B) {
	l := lab(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := eval.RunTable3(l)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			res.Render(io.Discard)
			b.ReportMetric(res.Mean["Anole"], "anole-mean-f1")
			b.ReportMetric(res.Mean["SDM"], "sdm-mean-f1")
		}
	}
}

func BenchmarkTable4_LatencyMemory(b *testing.B) {
	l := lab(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := eval.RunTable4(l)
		if i == 0 {
			res.Render(io.Discard)
			for _, row := range res.Rows {
				if row.Device == "Jetson TX2 NX" && row.Model == "compressed detector (tiny)" {
					b.ReportMetric(row.LatencyMs, "tiny-tx2-ms")
				}
			}
		}
	}
}

func BenchmarkFig10_RealWorld(b *testing.B) {
	l := lab(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := eval.RunFig10(l, 100)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			res.Render(io.Discard)
			b.ReportMetric(res.Mean["Anole"], "anole-mean-f1")
			b.ReportMetric(res.Mean["SDM"], "sdm-mean-f1")
		}
	}
}

func BenchmarkFig11_PowerModes(b *testing.B) {
	l := lab(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := eval.RunFig11(l, 400)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			res.Render(io.Discard)
			b.ReportMetric(res.AnolePowerSavingVsSDM, "power-saving-vs-sdm")
		}
	}
}

func BenchmarkAblation_SceneShift(b *testing.B) {
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := eval.RunAblationShift(benchSeed, nil)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			res.Render(io.Discard)
			b.ReportMetric(res.Rows[0].Gap, "gap-at-shift0")
			b.ReportMetric(res.Rows[len(res.Rows)-1].Gap, "gap-at-max-shift")
		}
	}
}

func BenchmarkAblation_Repertoire(b *testing.B) {
	l := lab(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := eval.RunAblationRepertoire(l, nil, nil)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			res.Render(io.Discard)
			b.ReportMetric(float64(len(res.Rows)), "settings")
		}
	}
}

func BenchmarkAblation_CachePolicy(b *testing.B) {
	l := lab(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := eval.RunAblationCache(l, 3, 100)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			res.Render(io.Discard)
			for _, row := range res.Rows {
				if row.Policy == "LFU" {
					b.ReportMetric(row.MissRate, "lfu-miss")
				}
			}
		}
	}
}

// BenchmarkEndToEnd_RuntimeFrame measures the substitute-model runtime's
// real (not simulated) per-frame cost: decision + cache + detection on
// the host CPU.
func BenchmarkEndToEnd_RuntimeFrame(b *testing.B) {
	l := lab(b)
	rt, err := core.NewRuntime(l.Bundle, core.RuntimeConfig{CacheSlots: 5})
	if err != nil {
		b.Fatal(err)
	}
	frames := l.Corpus.Frames(synth.Test)
	if len(frames) == 0 {
		b.Fatal("no frames")
	}
	var agg stats.PRF1
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := rt.ProcessFrame(frames[i%len(frames)])
		if err != nil {
			b.Fatal(err)
		}
		agg = agg.Add(res.Metrics)
	}
	_ = agg
}

// BenchmarkContinual_Expansion regenerates the continual-adaptation
// experiment: flag a novel scene via the calibrated novelty score, expand
// the repertoire, and measure the accuracy recovered.
func BenchmarkContinual_Expansion(b *testing.B) {
	l := lab(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := eval.RunContinual(l, 120)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			res.Render(io.Discard)
			b.ReportMetric(res.BeforeF1, "before-f1")
			b.ReportMetric(res.AfterF1, "after-f1")
			b.ReportMetric(res.FlagRate, "flag-rate")
		}
	}
}

// BenchmarkSelection_Decomposition regenerates the selection-quality
// decomposition (oracle vs scene-oracle vs decision vs runtime).
func BenchmarkSelection_Decomposition(b *testing.B) {
	l := lab(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := eval.RunSelection(l, 600)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			res.Render(io.Discard)
			b.ReportMetric(res.Oracle, "oracle-f1")
			b.ReportMetric(res.Runtime, "runtime-f1")
			b.ReportMetric(res.Top1Agreement, "top1-agreement")
		}
	}
}

// BenchmarkAblation_Thermal regenerates the passive-cooling ablation:
// sustained 30 FPS load with thermal throttling enabled.
func BenchmarkAblation_Thermal(b *testing.B) {
	l := lab(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := eval.RunThermal(l, 3000)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			res.Render(io.Discard)
			for _, row := range res.Rows {
				if row.Method == "SDM" {
					b.ReportMetric(row.Throttle, "sdm-throttle")
				} else {
					b.ReportMetric(row.Throttle, "anole-throttle")
				}
			}
		}
	}
}

// BenchmarkAblation_Quantize regenerates the repertoire-quantization
// sweep (accuracy vs weight precision vs download size).
func BenchmarkAblation_Quantize(b *testing.B) {
	l := lab(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := eval.RunQuantize(l, nil, 600)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			res.Render(io.Discard)
			for _, row := range res.Rows {
				if row.Bits == 8 {
					b.ReportMetric(row.F1, "int8-f1")
					b.ReportMetric(row.Compression, "int8-compression")
				}
			}
		}
	}
}

// BenchmarkAblation_Hysteresis regenerates the switch-hysteresis sweep.
func BenchmarkAblation_Hysteresis(b *testing.B) {
	l := lab(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := eval.RunHysteresis(l, 600, nil)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			res.Render(io.Discard)
			b.ReportMetric(float64(res.Rows[0].Switches), "switches-h1")
			b.ReportMetric(float64(res.Rows[len(res.Rows)-1].Switches), "switches-h8")
		}
	}
}

// BenchmarkMotivation_Offload regenerates the offloading-vs-local
// motivation comparison under a sweep of link stabilities.
func BenchmarkMotivation_Offload(b *testing.B) {
	l := lab(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := eval.RunOffload(l, 600, nil)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			res.Render(io.Discard)
			b.ReportMetric(res.AnoleP99Ms, "anole-p99-ms")
			b.ReportMetric(res.Rows[len(res.Rows)-1].OffloadMissPct, "offload-worst-miss-pct")
		}
	}
}
