package eval

import (
	"fmt"
	"io"
	"time"

	"anole/internal/core"
	"anole/internal/device"
	"anole/internal/synth"
)

// mustSim builds a simulator for a registry profile. The built-in
// profiles the figures run on always validate, so a failure here is a
// programming error, not an input error.
func mustSim(p device.Profile) *device.Simulator {
	sim, err := device.NewSimulator(p)
	if err != nil {
		panic(err)
	}
	return sim
}

// Fig4aResult is the per-frame inference latency of the deep and
// compressed detectors over the first frames of a clip, with the
// first-frame model-load spike (§V-B, Fig. 4a).
type Fig4aResult struct {
	Device  string
	Frames  int
	DeepMs  []float64
	TinyMs  []float64
	Clips   int
	SpeedUp float64 // steady-state deep/tiny latency ratio
}

// RunFig4a reproduces Fig. 4(a): average latency of the first `frames`
// frames over `clips` clips, on the TX2 NX profile, for the deep and
// compressed detectors. The first frame pays model load plus framework
// initialization.
func RunFig4a(l *Lab, clips, frames int) (Fig4aResult, error) {
	if clips <= 0 {
		clips = 5
	}
	if frames <= 0 {
		frames = 20
	}
	cells := l.World.Config().Cells()
	deep := deepModelCost(l, cells)
	tiny := l.Bundle.ModelCost(0, cells)

	run := func(model device.ModelCost) []float64 {
		acc := make([]float64, frames)
		for c := 0; c < clips; c++ {
			sim := mustSim(device.JetsonTX2NX)
			for i := 0; i < frames; i++ {
				var lat time.Duration
				if i == 0 {
					lat += sim.LoadModel(model)
				}
				lat += sim.Infer(model)
				acc[i] += float64(lat.Seconds() * 1e3)
			}
		}
		for i := range acc {
			acc[i] /= float64(clips)
		}
		return acc
	}
	deepMs := run(deep)
	tinyMs := run(tiny)
	speedup := 0.0
	if tinyMs[frames-1] > 0 {
		speedup = deepMs[frames-1] / tinyMs[frames-1]
	}
	return Fig4aResult{
		Device:  device.JetsonTX2NX.Name,
		Frames:  frames,
		DeepMs:  deepMs,
		TinyMs:  tinyMs,
		Clips:   clips,
		SpeedUp: speedup,
	}, nil
}

// Render writes the figure as text rows.
func (r Fig4aResult) Render(w io.Writer) {
	fmt.Fprintf(w, "Fig. 4a — per-frame latency on %s, mean over %d clips (ms)\n", r.Device, r.Clips)
	fmt.Fprintf(w, "%-7s %-12s %-12s\n", "frame", "deep", "compressed")
	for i := 0; i < r.Frames; i++ {
		fmt.Fprintf(w, "%-7d %-12.1f %-12.1f\n", i+1, r.DeepMs[i], r.TinyMs[i])
	}
	fmt.Fprintf(w, "steady-state deep/compressed latency ratio: %.1fx\n", r.SpeedUp)
}

// Table2Row is one model row of Table II.
type Table2Row struct {
	Model   string
	Role    string
	FLOPs   int64
	Weights int64
}

// Table2Result lists the deployed models' computational footprints.
type Table2Result struct {
	Rows []Table2Row
}

// RunTable2 reproduces Table II from the lab's actual architectures
// (per-frame FLOPs for detectors; per-inference for the decision stack).
func RunTable2(l *Lab) Table2Result {
	cells := l.World.Config().Cells()
	deep := l.SDM.Detectors()[0]
	tiny := l.Bundle.Detectors[0]
	return Table2Result{Rows: []Table2Row{
		{
			Model:   "compressed detector (YOLOv3-tiny analogue)",
			Role:    "compressed model",
			FLOPs:   tiny.FrameFLOPs(cells),
			Weights: tiny.WeightBytes(),
		},
		{
			Model:   "scene encoder (ResNet18 analogue)",
			Role:    "M_scene",
			FLOPs:   l.Bundle.Encoder.Weights.FLOPs(),
			Weights: l.Bundle.Encoder.Weights.WeightBytes(),
		},
		{
			Model:   "decision head (MLP)",
			Role:    "M_decision",
			FLOPs:   l.Bundle.Decision.Head.FLOPs(),
			Weights: l.Bundle.Decision.Head.WeightBytes(),
		},
		{
			Model:   "deep detector (YOLOv3 analogue)",
			Role:    "deep model",
			FLOPs:   deep.FrameFLOPs(cells),
			Weights: deep.WeightBytes(),
		},
	}}
}

// Render writes the table.
func (r Table2Result) Render(w io.Writer) {
	fmt.Fprintln(w, "Table II — deployed models (substitute-scale; ×1e4 ≈ paper scale)")
	fmt.Fprintf(w, "%-44s %-18s %-12s %-10s\n", "model", "role", "FLOPs", "weights(B)")
	for _, row := range r.Rows {
		fmt.Fprintf(w, "%-44s %-18s %-12d %-10d\n", row.Model, row.Role, row.FLOPs, row.Weights)
	}
	if len(r.Rows) == 4 {
		ratio := float64(r.Rows[3].FLOPs) / float64(r.Rows[0].FLOPs)
		fmt.Fprintf(w, "deep/compressed FLOPs ratio: %.1fx (paper: 11.8x)\n", ratio)
	}
}

// Table4Row is one (model, device) measurement of Table IV.
type Table4Row struct {
	Model      string
	Device     string
	LatencyMs  float64
	LoadMemMB  float64
	ExecMemMB  float64
	LoadTimeMs float64
}

// Table4Result is the latency/memory table across the three devices.
type Table4Result struct {
	Rows []Table4Row
}

// RunTable4 reproduces Table IV: steady-state inference latency of the
// decision stack, the deep detector and a compressed detector on all
// three device profiles, plus load/execution memory.
func RunTable4(l *Lab) Table4Result {
	cells := l.World.Config().Cells()
	models := []device.ModelCost{
		l.Bundle.DecisionCost(),
		deepModelCost(l, cells),
		l.Bundle.ModelCost(0, cells),
	}
	names := []string{"M_scene + M_decision", "deep detector (YOLOv3)", "compressed detector (tiny)"}
	var rows []Table4Row
	for mi, m := range models {
		for _, prof := range device.Profiles() {
			sim := mustSim(prof)
			sim.LoadModel(m) // absorb framework init outside the steady-state figure
			lat := sim.Infer(m)
			loadSim := mustSim(prof)
			loadSim.LoadModel(device.ModelCost{Name: "warm", FLOPsPerInference: 1, WeightBytes: 1})
			loadTime := loadSim.LoadModel(m) // warm load: transfer only
			rows = append(rows, Table4Row{
				Model:      names[mi],
				Device:     prof.Name,
				LatencyMs:  lat.Seconds() * 1e3,
				LoadMemMB:  m.LoadMemoryMB(),
				ExecMemMB:  m.ExecMemoryMB(),
				LoadTimeMs: loadTime.Seconds() * 1e3,
			})
		}
	}
	return Table4Result{Rows: rows}
}

// Render writes the table.
func (r Table4Result) Render(w io.Writer) {
	fmt.Fprintln(w, "Table IV — inference latency and memory on mobile devices")
	fmt.Fprintf(w, "%-28s %-24s %-12s %-12s %-12s %-12s\n",
		"model", "device", "latency(ms)", "load(MB)", "exec(MB)", "load(ms)")
	for _, row := range r.Rows {
		fmt.Fprintf(w, "%-28s %-24s %-12.1f %-12.1f %-12.1f %-12.1f\n",
			row.Model, row.Device, row.LatencyMs, row.LoadMemMB, row.ExecMemMB, row.LoadTimeMs)
	}
}

// Fig11Row is one (power mode, method) measurement.
type Fig11Row struct {
	Mode   string
	Method string
	PowerW float64
	FPS    float64
}

// Fig11Result sweeps TX2 NX power modes for Anole and the baselines.
type Fig11Result struct {
	Rows []Fig11Row
	// AnolePowerSavingVsSDM is (1 − Anole/SDM) power at the top mode,
	// the paper's headline 45.1%.
	AnolePowerSavingVsSDM float64
}

// fig11FramePeriod is the camera frame interval of the Fig. 11 workload:
// a 30 FPS stream. Methods whose per-frame work finishes early idle until
// the next frame, which is where small-model schemes save power.
const fig11FramePeriod = 33300 * time.Microsecond

// RunFig11 reproduces Fig. 11: average power and inference FPS of every
// method on a fixed 30 FPS frame stream, per TX2 NX power mode. frames
// caps the simulated stream length.
func RunFig11(l *Lab, frames int) (Fig11Result, error) {
	if frames <= 0 {
		frames = 300
	}
	stream := l.Corpus.Frames(synth.Test)
	if len(stream) == 0 {
		return Fig11Result{}, fmt.Errorf("eval: no test frames")
	}
	if len(stream) > frames {
		stream = stream[:frames]
	}
	cells := l.World.Config().Cells()

	var res Fig11Result
	var sdmTopPower, anoleTopPower float64
	for mi := range device.JetsonTX2NX.Modes {
		modeName := device.JetsonTX2NX.Modes[mi].Name

		// Baselines: load once, infer per frame.
		for _, sel := range l.Selectors() {
			sim, err := device.NewSimulatorAtMode(device.JetsonTX2NX, mi)
			if err != nil {
				return Fig11Result{}, err
			}
			perModel := make(map[string]device.ModelCost)
			for _, det := range sel.Detectors() {
				mc := device.ModelCost{Name: det.Name, FLOPsPerInference: det.FrameFLOPs(cells), WeightBytes: det.WeightBytes()}
				perModel[det.Name] = mc
				sim.LoadModel(mc)
			}
			sim.ResetCounters() // measure steady state, not model loading
			for _, f := range stream {
				det := sel.Select(f)
				lat := sim.Infer(perModel[det.Name])
				sim.Idle(fig11FramePeriod - lat)
			}
			res.Rows = append(res.Rows, Fig11Row{
				Mode: modeName, Method: sel.Name(),
				PowerW: sim.AveragePowerW(), FPS: sim.FPS(),
			})
			if sel.Name() == "SDM" && mi == len(device.JetsonTX2NX.Modes)-1 {
				sdmTopPower = sim.AveragePowerW()
			}
		}

		// Anole: decision + cache dynamics charged via the runtime.
		sim, err := device.NewSimulatorAtMode(device.JetsonTX2NX, mi)
		if err != nil {
			return Fig11Result{}, err
		}
		rt, err := core.NewRuntime(l.Bundle, core.RuntimeConfig{CacheSlots: 5, Device: sim})
		if err != nil {
			return Fig11Result{}, err
		}
		// Warm up the cache over the first quarter of the stream, then
		// measure steady state (baselines likewise measure post-load).
		warm := len(stream) / 4
		for i, f := range stream {
			if i == warm {
				sim.ResetCounters()
			}
			fres, err := rt.ProcessFrame(f)
			if err != nil {
				return Fig11Result{}, err
			}
			sim.Idle(fig11FramePeriod - fres.Latency)
		}
		res.Rows = append(res.Rows, Fig11Row{
			Mode: modeName, Method: "Anole",
			PowerW: sim.AveragePowerW(), FPS: sim.FPS(),
		})
		if mi == len(device.JetsonTX2NX.Modes)-1 {
			anoleTopPower = sim.AveragePowerW()
		}
	}
	if sdmTopPower > 0 {
		res.AnolePowerSavingVsSDM = 1 - anoleTopPower/sdmTopPower
	}
	return res, nil
}

// Render writes the figure as text rows.
func (r Fig11Result) Render(w io.Writer) {
	fmt.Fprintln(w, "Fig. 11 — power and inference speed across TX2 NX power modes")
	fmt.Fprintf(w, "%-14s %-8s %-10s %-8s\n", "mode", "method", "power(W)", "FPS")
	for _, row := range r.Rows {
		fmt.Fprintf(w, "%-14s %-8s %-10.2f %-8.1f\n", row.Mode, row.Method, row.PowerW, row.FPS)
	}
	fmt.Fprintf(w, "Anole power saving vs SDM at top mode: %.1f%% (paper: 45.1%%)\n",
		100*r.AnolePowerSavingVsSDM)
}

// deepModelCost builds the device cost of the lab's deep baseline.
func deepModelCost(l *Lab, cells int) device.ModelCost {
	deep := l.SDM.Detectors()[0]
	return device.ModelCost{
		Name:              deep.Name,
		FLOPsPerInference: deep.FrameFLOPs(cells),
		WeightBytes:       deep.WeightBytes(),
	}
}
