package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"anole/internal/core"
	"anole/internal/decision"
	"anole/internal/detect"
	"anole/internal/nn"
	"anole/internal/repo"
	"anole/internal/scene"
	"anole/internal/synth"
	"anole/internal/trace"
	"anole/internal/xrand"
)

func TestRunRejectsUnknownDevice(t *testing.T) {
	err := run(io.Discard, []string{"-bundle", "/nonexistent", "-device", "gpu9000"})
	if err == nil || !strings.Contains(err.Error(), `unknown device "gpu9000"`) {
		t.Fatalf("expected unknown-device error, got %v", err)
	}
}

func TestRunRejectsMissingBundle(t *testing.T) {
	err := run(io.Discard, []string{"-bundle", "/nonexistent.bundle"})
	if err == nil || !strings.Contains(err.Error(), "repo") {
		t.Fatalf("expected repo load error, got %v", err)
	}
}

func TestRunRejectsBadFlags(t *testing.T) {
	if err := run(io.Discard, []string{"-clips", "notanumber"}); err == nil {
		t.Fatal("expected flag parse error")
	}
}

func TestRunRejectsBadStreams(t *testing.T) {
	err := run(io.Discard, []string{"-streams", "0"})
	if err == nil || !strings.Contains(err.Error(), "-streams") {
		t.Fatalf("expected streams validation error, got %v", err)
	}
}

// cheapBundlePath saves an untrained but structurally valid bundle whose
// feature dimension matches synth.DefaultConfig, so run() can stream
// generated frames through it without paying for profiling.
func cheapBundlePath(t *testing.T) string {
	return cheapBundlePathSeed(t, 7)
}

// cheapBundlePathSeed is cheapBundlePath with a chosen generator seed:
// the untrained decision head's switching behavior on the default trace
// depends on its random weights, so tests that need scene switches (and
// thus link traffic) pick a seed whose head discriminates between
// frames.
func cheapBundlePathSeed(t *testing.T, seed uint64) string {
	t.Helper()
	featDim := synth.DefaultConfig(1).FeatDim
	rng := xrand.NewLabeled(seed, "anole-run-test-bundle")
	const embedDim, models = 4, 3
	encNet := nn.NewMLP(nn.MLPConfig{
		InDim: synth.FrameFeatureDim(featDim), Hidden: []int{6, embedDim}, OutDim: 2,
	}, rng)
	enc, err := scene.FromParts(encNet.Freeze(), []int{0, 1}, embedDim)
	if err != nil {
		t.Fatal(err)
	}
	head := nn.NewMLP(nn.MLPConfig{InDim: embedDim, Hidden: []int{5}, OutDim: models}, rng)
	dec, err := decision.FromParts(enc, head.Freeze())
	if err != nil {
		t.Fatal(err)
	}
	detectors := make([]*detect.Detector, models)
	infos := make([]core.ModelInfo, models)
	for i := range detectors {
		detectors[i] = detect.NewDetector(fmt.Sprintf("M_%d", i), detect.Compressed, featDim, rng)
		infos[i] = core.ModelInfo{
			Name: detectors[i].Name, Level: i, Cluster: i,
			TrainScenes: []int{i}, ValF1: 0.5,
		}
	}
	b := &core.Bundle{
		Encoder:   enc,
		Decision:  dec,
		Detectors: detectors,
		Infos:     infos,
		FeatDim:   featDim,
	}
	// Calibrate novelty on the two known scenes so drift signals are live
	// (an uncalibrated bundle scores every frame 0).
	world, err := synth.NewWorld(synth.DefaultConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	crng := xrand.NewLabeled(seed, "anole-run-test-calibrate")
	var cal []*synth.Frame
	for _, idx := range []int{0, 1} {
		for i := 0; i < 20; i++ {
			cal = append(cal, world.GenerateFrame(synth.SceneFromIndex(idx), 1, crng))
		}
	}
	b.CalibrateNovelty(cal)
	if err := b.Validate(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "test.bundle")
	if err := repo.SaveFile(path, b); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestRunSingleStream pins the default one-camera run: it serves
// through the same MultiRuntime path as any stream count, so it prints
// the unified per-stream and aggregate summary.
func TestRunSingleStream(t *testing.T) {
	path := cheapBundlePath(t)
	var out strings.Builder
	err := run(&out, []string{"-bundle", path, "-clips", "1", "-frames", "12", "-cache", "2"})
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"streaming 1 streams x 1 clips x 12 frames",
		"stream 0: 12 frames", "W avg", "peak",
		"aggregate: frames 12", "shared cache:", "simulated makespan",
	} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output missing %q:\n%s", want, out.String())
		}
	}
	if strings.Contains(out.String(), "stream 1:") {
		t.Errorf("one-stream run printed a second stream:\n%s", out.String())
	}
}

// TestRunSingleStreamFleetFlags runs one stream with each flag that
// once required -streams >= 2; all of them drive the one MultiRuntime
// and must work for a single camera.
func TestRunSingleStreamFleetFlags(t *testing.T) {
	path := cheapBundlePath(t)
	dir := t.TempDir()
	ckpt := filepath.Join(dir, "warm.ckpt")
	base := []string{"-bundle", path, "-streams", "1", "-clips", "1", "-frames", "20", "-cache", "2"}
	cases := []struct {
		name string
		// runs execute in order; want[i] must appear in the output of
		// runs[i].
		runs [][]string
		want []string
	}{
		{"deadline thermal", [][]string{{"-deadline", "20ms", "-thermal"}}, []string{"pressure: level"}},
		{"checkpoint restore", [][]string{{"-checkpoint", ckpt}, {"-restore", ckpt}},
			[]string{"checkpoint: wrote", "restore: warmed"}},
		{"flight slo", [][]string{{"-flight", "-slo"}}, []string{"slo: p99", "flight:"}},
		{"fleet plan", [][]string{{"-fleet", "nano:1,tx2:1", "-plan", "-cache", "12"}},
			[]string{"stream 0 [nano fp32]:"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for i, extra := range tc.runs {
				var out strings.Builder
				if err := run(&out, append(append([]string{}, base...), extra...)); err != nil {
					t.Fatalf("run %d (%v): %v", i, extra, err)
				}
				if !strings.Contains(out.String(), tc.want[i]) || !strings.Contains(out.String(), "aggregate: frames 20") {
					t.Errorf("run %d (%v): output missing %q or the aggregate line:\n%s", i, extra, tc.want[i], out.String())
				}
			}
		})
	}
}

func TestRunSingleStreamPrefetchJSON(t *testing.T) {
	path := cheapBundlePath(t)
	jsonPath := filepath.Join(t.TempDir(), "stats.json")
	var out strings.Builder
	err := run(&out, []string{
		"-bundle", path, "-clips", "2", "-frames", "30", "-cache", "2",
		"-prefetch", "-link-stability", "0.9", "-prefetch-budget", "100000000",
		"-json", jsonPath,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"link: cold misses", "prefetch: issued"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output missing %q:\n%s", want, out.String())
		}
	}
	raw, err := os.ReadFile(jsonPath)
	if err != nil {
		t.Fatal(err)
	}
	var rep report
	if err := json.Unmarshal(raw, &rep); err != nil {
		t.Fatalf("stats JSON: %v\n%s", err, raw)
	}
	if rep.Frames != 60 {
		t.Fatalf("frames %d, want 60", rep.Frames)
	}
	if rep.ColdMisses == 0 || rep.FetchStallMs <= 0 {
		t.Fatalf("no link activity in report: %+v", rep)
	}
	if rep.Scheduler == nil {
		t.Fatal("report missing scheduler stats")
	}
	if rep.CacheHits+rep.CacheMisses == 0 {
		t.Fatal("report missing cache counters")
	}
}

func TestRunChaosJSON(t *testing.T) {
	path := cheapBundlePath(t)
	jsonPath := filepath.Join(t.TempDir(), "stats.json")
	var out strings.Builder
	err := run(&out, []string{
		"-bundle", path, "-clips", "2", "-frames", "30", "-cache", "2",
		"-chaos", "-outage-rate", "0.4", "-corrupt-rate", "0.1",
		"-breaker-threshold", "2", "-breaker-cooldown", "10",
		"-link-stability", "0.5", "-json", jsonPath,
	})
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(jsonPath)
	if err != nil {
		t.Fatal(err)
	}
	var rep report
	if err := json.Unmarshal(raw, &rep); err != nil {
		t.Fatalf("stats JSON: %v\n%s", err, raw)
	}
	// -chaos implies -prefetch; every frame must still be processed.
	if rep.Frames != 60 {
		t.Fatalf("frames %d, want 60", rep.Frames)
	}
	if rep.Scheduler == nil {
		t.Fatal("report missing scheduler stats")
	}
	// The counters must be present in the JSON even when zero.
	for _, key := range []string{"degradedFrames", "fallbackServed", "breakerOpens"} {
		if !strings.Contains(string(raw), key) {
			t.Errorf("report JSON missing %q:\n%s", key, raw)
		}
	}
}

func TestRunJSONToStdout(t *testing.T) {
	path := cheapBundlePath(t)
	var out strings.Builder
	err := run(&out, []string{
		"-bundle", path, "-clips", "1", "-frames", "10", "-cache", "2", "-json", "-",
	})
	if err != nil {
		t.Fatal(err)
	}
	// The JSON object is the tail of the output.
	idx := strings.Index(out.String(), "{")
	if idx < 0 {
		t.Fatalf("no JSON in output:\n%s", out.String())
	}
	var rep report
	if err := json.Unmarshal([]byte(out.String()[idx:]), &rep); err != nil {
		t.Fatalf("stats JSON: %v", err)
	}
	if rep.Frames != 10 || rep.Scheduler != nil {
		t.Fatalf("unexpected report: %+v", rep)
	}
}

func TestRunMultiStreamPrefetchJSON(t *testing.T) {
	path := cheapBundlePath(t)
	jsonPath := filepath.Join(t.TempDir(), "stats.json")
	var out strings.Builder
	err := run(&out, []string{
		"-bundle", path, "-streams", "2", "-clips", "1", "-frames", "25",
		"-cache", "2", "-prefetch", "-json", jsonPath,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "link: cold misses") {
		t.Errorf("output missing link summary:\n%s", out.String())
	}
	raw, err := os.ReadFile(jsonPath)
	if err != nil {
		t.Fatal(err)
	}
	var rep report
	if err := json.Unmarshal(raw, &rep); err != nil {
		t.Fatalf("stats JSON: %v\n%s", err, raw)
	}
	if rep.Frames != 50 || rep.Scheduler == nil {
		t.Fatalf("unexpected report: %+v", rep)
	}
	if rep.ColdMisses == 0 {
		t.Fatal("no cold misses across streams")
	}
}

func TestRunMultiStream(t *testing.T) {
	path := cheapBundlePath(t)
	tracePath := filepath.Join(t.TempDir(), "run.trace")
	const streams, frames = 3, 15
	var out strings.Builder
	err := run(&out, []string{
		"-bundle", path, "-streams", fmt.Sprint(streams),
		"-clips", "1", "-frames", fmt.Sprint(frames),
		"-cache", "2", "-trace", tracePath,
	})
	if err != nil {
		t.Fatal(err)
	}
	for s := 0; s < streams; s++ {
		if !strings.Contains(out.String(), fmt.Sprintf("stream %d:", s)) {
			t.Errorf("output missing stream %d line:\n%s", s, out.String())
		}
	}
	for _, want := range []string{"aggregate:", "shared cache:", "simulated makespan"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output missing %q:\n%s", want, out.String())
		}
	}
	// Every stream must have written a complete, readable trace.
	for s := 0; s < streams; s++ {
		f, err := os.Open(fmt.Sprintf("%s.stream%d", tracePath, s))
		if err != nil {
			t.Fatal(err)
		}
		events, err := trace.Read(f)
		f.Close()
		if err != nil {
			t.Fatalf("stream %d trace: %v", s, err)
		}
		if len(events) != frames {
			t.Errorf("stream %d trace has %d events, want %d", s, len(events), frames)
		}
	}
}

func TestRunAdaptRequiresMultiStream(t *testing.T) {
	err := run(io.Discard, []string{"-bundle", cheapBundlePath(t), "-adapt"})
	if err == nil || !strings.Contains(err.Error(), "-adapt") {
		t.Fatalf("expected -adapt stream validation error, got %v", err)
	}
}

func TestRunAdaptJSON(t *testing.T) {
	path := cheapBundlePath(t)
	jsonPath := filepath.Join(t.TempDir(), "stats.json")
	var out strings.Builder
	err := run(&out, []string{
		"-bundle", path, "-streams", "2", "-clips", "1", "-frames", "90",
		"-cache", "4", "-adapt", "-drift-window", "15", "-canary-frames", "30",
		"-json", jsonPath,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"adapt: stream 0 enters unseen scene", "fleet generation"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output missing %q:\n%s", want, out.String())
		}
	}
	raw, err := os.ReadFile(jsonPath)
	if err != nil {
		t.Fatal(err)
	}
	var rep report
	if err := json.Unmarshal(raw, &rep); err != nil {
		t.Fatalf("stats JSON: %v\n%s", err, raw)
	}
	if rep.Adapt == nil {
		t.Fatalf("report missing adapt block:\n%s", raw)
	}
	if rep.Adapt.FleetGeneration < 1 {
		t.Fatalf("fleet generation %d", rep.Adapt.FleetGeneration)
	}
	// The canary stream spends the whole run in the unseen scene with a
	// calibrated novelty signal, so drift must be detected and reported
	// (this is deterministic for the fixed bundle seed and trace seed).
	if rep.Adapt.DriftEvents == 0 || rep.Adapt.ReportsSent == 0 {
		t.Fatalf("adaptation loop saw no drift: %+v", *rep.Adapt)
	}
	for _, key := range []string{"driftEvents", "reportsSent", "canaryStarts", "fleetGeneration"} {
		if !strings.Contains(string(raw), key) {
			t.Errorf("report JSON missing %q", key)
		}
	}
}

func TestRunRejectsBadFleetFlags(t *testing.T) {
	cases := map[string][]string{
		"plan without fleet": {"-streams", "2", "-plan"},
		"plan with adapt":    {"-streams", "2", "-fleet", "nano:1,tx2:1", "-plan", "-adapt"},
	}
	for name, args := range cases {
		if err := run(io.Discard, args); err == nil {
			t.Errorf("%s: expected validation error", name)
		}
	}
	// A malformed spec fails before any streaming.
	path := cheapBundlePath(t)
	err := run(io.Discard, []string{"-bundle", path, "-streams", "2", "-fleet", "warp9:1"})
	if err == nil || !strings.Contains(err.Error(), "warp9") {
		t.Fatalf("expected unknown-profile error, got %v", err)
	}
}

// TestRunFleetPlanJSON drives a planned mixed fleet end to end with SLO
// evaluation: the summary must carry per-class fleet lines with planner
// variants, and the -json report must contain the "fleet" block, the
// per-class SLO percentiles and the anole_fleet_* / anole_plan_* series.
func TestRunFleetPlanJSON(t *testing.T) {
	path := cheapBundlePath(t)
	jsonPath := filepath.Join(t.TempDir(), "stats.json")
	const streams = 4
	var out strings.Builder
	err := run(&out, []string{
		"-bundle", path, "-streams", fmt.Sprint(streams),
		"-clips", "1", "-frames", "20", "-cache", "12",
		"-fleet", "nano:1,tx2:1", "-plan", "-slo", "-json", jsonPath,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"fleet nano (Jetson Nano):", "fleet tx2 (Jetson TX2 NX):", "variants", "slo fleet nano:"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output missing %q:\n%s", want, out.String())
		}
	}

	raw, err := os.ReadFile(jsonPath)
	if err != nil {
		t.Fatal(err)
	}
	var rep report
	if err := json.Unmarshal(raw, &rep); err != nil {
		t.Fatalf("stats JSON: %v\n%s", err, raw)
	}
	if len(rep.Fleet) != 2 {
		t.Fatalf("fleet block %+v, want nano and tx2", rep.Fleet)
	}
	total := 0
	for _, cr := range rep.Fleet {
		total += cr.Streams
		if cr.Frames == 0 || len(cr.Variants) == 0 {
			t.Fatalf("class %s missing frames or variants: %+v", cr.Class, cr)
		}
	}
	if total != streams {
		t.Fatalf("fleet classes cover %d streams, want %d", total, streams)
	}
	if rep.SLO == nil || len(rep.SLO.Classes) != 2 {
		t.Fatalf("slo classes missing: %+v", rep.SLO)
	}
	foundFleetGauge := false
	for name := range rep.Metrics {
		if strings.HasPrefix(name, "anole_fleet_") {
			foundFleetGauge = true
			break
		}
	}
	if !foundFleetGauge {
		t.Fatal("no anole_fleet_* series in metrics")
	}
	if _, ok := rep.Metrics["anole_plan_infeasible_streams"]; !ok {
		t.Fatal("no anole_plan_infeasible_streams gauge in metrics")
	}
}
