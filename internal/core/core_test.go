package core_test

import (
	"testing"

	"anole/internal/core"
	"anole/internal/device"
	"anole/internal/modelcache"
	"anole/internal/synth"
	"anole/internal/testutil"
	"anole/internal/xrand"
)

// mustSim builds a simulator for a known-good registry profile.
func mustSim(p device.Profile) *device.Simulator {
	sim, err := device.NewSimulator(p)
	if err != nil {
		panic(err)
	}
	return sim
}

func TestProfileProducesValidBundle(t *testing.T) {
	fx := testutil.Shared(t)
	b := fx.Bundle
	if err := b.Validate(); err != nil {
		t.Fatal(err)
	}
	if b.NumModels() < 2 {
		t.Fatalf("repertoire size %d", b.NumModels())
	}
	for i, info := range b.Infos {
		if info.Name != b.Detectors[i].Name {
			t.Fatalf("info %d name mismatch: %q vs %q", i, info.Name, b.Detectors[i].Name)
		}
		if len(info.TrainScenes) == 0 {
			t.Fatalf("model %d has no scenes", i)
		}
	}
}

func TestProfileRejectsEmptyCorpus(t *testing.T) {
	if _, err := core.Profile(nil, core.DefaultProfileConfig(1)); err == nil {
		t.Fatal("nil corpus accepted")
	}
	if _, err := core.Profile(&synth.Corpus{}, core.DefaultProfileConfig(1)); err == nil {
		t.Fatal("empty corpus accepted")
	}
}

func TestBundleValidate(t *testing.T) {
	fx := testutil.Shared(t)
	good := *fx.Bundle
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := good
	bad.Encoder = nil
	if bad.Validate() == nil {
		t.Fatal("missing encoder accepted")
	}
	bad = good
	bad.Infos = bad.Infos[:1]
	if bad.Validate() == nil {
		t.Fatal("info count mismatch accepted")
	}
	bad = good
	bad.Detectors = nil
	if bad.Validate() == nil {
		t.Fatal("empty repertoire accepted")
	}
	var nilB *core.Bundle
	if nilB.Validate() == nil {
		t.Fatal("nil bundle accepted")
	}
}

func TestBundleCosts(t *testing.T) {
	fx := testutil.Shared(t)
	b := fx.Bundle
	mc := b.ModelCost(0, 64)
	if mc.FLOPsPerInference <= 0 || mc.WeightBytes <= 0 || mc.Name == "" {
		t.Fatalf("model cost: %+v", mc)
	}
	dc := b.DecisionCost()
	if dc.FLOPsPerInference <= 0 {
		t.Fatalf("decision cost: %+v", dc)
	}
	// Decision per-frame cost must be below a full-frame detection.
	if dc.FLOPsPerInference >= mc.FLOPsPerInference {
		t.Fatal("decision should be cheaper than per-frame detection")
	}
}

func TestRuntimeProcessFrame(t *testing.T) {
	fx := testutil.Shared(t)
	rt, err := core.NewRuntime(fx.Bundle, core.RuntimeConfig{CacheSlots: 3})
	if err != nil {
		t.Fatal(err)
	}
	frames := fx.Corpus.Frames(synth.Test)
	if len(frames) == 0 {
		t.Fatal("no test frames")
	}
	for _, f := range frames[:50] {
		res, err := rt.ProcessFrame(f)
		if err != nil {
			t.Fatal(err)
		}
		if res.Desired < 0 || res.Desired >= fx.Bundle.NumModels() {
			t.Fatalf("desired %d", res.Desired)
		}
		if res.Used < 0 || res.Used >= fx.Bundle.NumModels() {
			t.Fatalf("used %d", res.Used)
		}
		if res.Confidence <= 0 || res.Confidence > 1 {
			t.Fatalf("confidence %v", res.Confidence)
		}
		if res.Hit && res.Used != res.Desired {
			t.Fatal("hit must use the desired model")
		}
	}
	st := rt.Stats()
	if st.Frames != 50 {
		t.Fatalf("frames = %d", st.Frames)
	}
	var desiredSum int
	for _, c := range st.DesiredCounts {
		desiredSum += c
	}
	if desiredSum != 50 {
		t.Fatalf("desired counts sum %d", desiredSum)
	}
	var durSum int
	for _, d := range st.SceneDurations {
		durSum += d
	}
	if durSum != 50 {
		t.Fatalf("scene durations sum %d, want 50", durSum)
	}
	if st.MeanSceneDuration() <= 0 {
		t.Fatal("mean scene duration not positive")
	}
}

func TestRuntimeRejectsBadInput(t *testing.T) {
	fx := testutil.Shared(t)
	rt, err := core.NewRuntime(fx.Bundle, core.RuntimeConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rt.ProcessFrame(nil); err == nil {
		t.Fatal("nil frame accepted")
	}
	// Frame with wrong feature dimension.
	cfg := synth.DefaultConfig(7)
	cfg.FeatDim = 4
	w2, err := synth.NewWorld(cfg)
	if err != nil {
		t.Fatal(err)
	}
	f := w2.GenerateFrame(synth.Scene{}, 1, xrand.New(1))
	if _, err := rt.ProcessFrame(f); err == nil {
		t.Fatal("wrong feat dim accepted")
	}
}

func TestRuntimeFirstFrameAlwaysServed(t *testing.T) {
	fx := testutil.Shared(t)
	rt, err := core.NewRuntime(fx.Bundle, core.RuntimeConfig{CacheSlots: 1})
	if err != nil {
		t.Fatal(err)
	}
	f := fx.Corpus.Frames(synth.Test)[0]
	res, err := rt.ProcessFrame(f)
	if err != nil {
		t.Fatal(err)
	}
	if res.Hit {
		t.Fatal("first frame cannot hit an empty cache")
	}
	if res.Used != res.Desired {
		t.Fatal("first frame should load and use the desired model")
	}
}

func TestRuntimeWithDeviceChargesLatency(t *testing.T) {
	fx := testutil.Shared(t)
	sim := mustSim(device.JetsonTX2NX)
	rt, err := core.NewRuntime(fx.Bundle, core.RuntimeConfig{CacheSlots: 2, Device: sim})
	if err != nil {
		t.Fatal(err)
	}
	frames := fx.Corpus.Frames(synth.Test)
	first, err := rt.ProcessFrame(frames[0])
	if err != nil {
		t.Fatal(err)
	}
	if first.Latency <= 0 {
		t.Fatal("no latency charged")
	}
	// The first frame pays model load + framework init; a later hit on
	// the same model must be much cheaper (Fig. 4a shape).
	var hitLatency int64
	for _, f := range frames[1:40] {
		res, err := rt.ProcessFrame(f)
		if err != nil {
			t.Fatal(err)
		}
		if res.Hit {
			hitLatency = int64(res.Latency)
			break
		}
	}
	if hitLatency == 0 {
		t.Skip("no cache hit in 40 frames")
	}
	if hitLatency >= int64(first.Latency) {
		t.Fatalf("hit latency %d not below cold first frame %d", hitLatency, int64(first.Latency))
	}
	if sim.EnergyJ() <= 0 || sim.Inferences() == 0 {
		t.Fatal("device counters not advanced")
	}
	if rt.Stats().TotalLatency <= 0 {
		t.Fatal("total latency not accumulated")
	}
}

func TestRuntimeCacheBoundsResidency(t *testing.T) {
	fx := testutil.Shared(t)
	sim := mustSim(device.JetsonNano)
	rt, err := core.NewRuntime(fx.Bundle, core.RuntimeConfig{CacheSlots: 2, Device: sim})
	if err != nil {
		t.Fatal(err)
	}
	maxResident := fx.Bundle.ModelCost(0, 64).LoadMemoryMB() * 2.5
	frames80 := fx.Corpus.Frames(synth.Test)
	if len(frames80) > 80 {
		frames80 = frames80[:80]
	}
	for _, f := range frames80 {
		if _, err := rt.ProcessFrame(f); err != nil {
			t.Fatal(err)
		}
		if sim.ResidentMemoryMB() > maxResident {
			t.Fatalf("resident %vMB exceeds 2-slot bound %vMB", sim.ResidentMemoryMB(), maxResident)
		}
	}
}

func TestRuntimeAccuracyBeatsRandomSelection(t *testing.T) {
	// Anole's selection should beat picking a fixed arbitrary
	// repertoire model for everything.
	fx := testutil.Shared(t)
	rt, err := core.NewRuntime(fx.Bundle, core.RuntimeConfig{CacheSlots: 4})
	if err != nil {
		t.Fatal(err)
	}
	frames := fx.Corpus.Frames(synth.Test)
	if len(frames) > 300 {
		frames = frames[:300]
	}
	for _, f := range frames {
		if _, err := rt.ProcessFrame(f); err != nil {
			t.Fatal(err)
		}
	}
	anoleF1 := rt.Stats().Detection.F1

	worst := 1.0
	for _, det := range fx.Bundle.Detectors {
		if f1 := det.EvaluateFrames(frames).F1; f1 < worst {
			worst = f1
		}
	}
	if anoleF1 <= worst {
		t.Fatalf("Anole F1 %v not above worst fixed model %v", anoleF1, worst)
	}
}

func TestNewRuntimeValidation(t *testing.T) {
	if _, err := core.NewRuntime(&core.Bundle{}, core.RuntimeConfig{}); err == nil {
		t.Fatal("invalid bundle accepted")
	}
	fx := testutil.Shared(t)
	if _, err := core.NewRuntime(fx.Bundle, core.RuntimeConfig{Policy: modelcache.Policy(99)}); err == nil {
		t.Fatal("invalid policy accepted")
	}
}

func TestRuntimeDeterministic(t *testing.T) {
	fx := testutil.Shared(t)
	run := func() core.RunStats {
		rt, err := core.NewRuntime(fx.Bundle, core.RuntimeConfig{CacheSlots: 3})
		if err != nil {
			t.Fatal(err)
		}
		frames := fx.Corpus.Frames(synth.Test)
		if len(frames) > 100 {
			frames = frames[:100]
		}
		for _, f := range frames {
			if _, err := rt.ProcessFrame(f); err != nil {
				t.Fatal(err)
			}
		}
		return rt.Stats()
	}
	a, b := run(), run()
	if a.Switches != b.Switches || a.MissRate != b.MissRate || a.Detection.F1 != b.Detection.F1 {
		t.Fatal("runtime not deterministic")
	}
}

func TestNoveltyCalibration(t *testing.T) {
	fx := testutil.Shared(t)
	if len(fx.Bundle.Centroids) == 0 || fx.Bundle.NoveltyScale <= 0 {
		t.Fatal("Profile should calibrate novelty")
	}
	// In-distribution frames score low; a scene outside every dataset
	// profile scores much higher.
	var inDist, novel float64
	test := fx.Corpus.Frames(synth.Test)
	n := 30
	if len(test) < n {
		n = len(test)
	}
	for _, f := range test[:n] {
		inDist += testutil.Novelty(fx.Bundle, f)
	}
	inDist /= float64(n)
	rng := xrand.New(777)
	novelScene := synth.Scene{Weather: synth.Foggy, Location: synth.TollBooth, Time: synth.Night}
	for i := 0; i < n; i++ {
		novel += testutil.Novelty(fx.Bundle, fx.World.GenerateFrame(novelScene, 1, rng))
	}
	novel /= float64(n)
	if novel <= 2*inDist {
		t.Fatalf("novel-scene novelty %v not well above in-distribution %v", novel, inDist)
	}
	// Uncalibrated bundles report zero.
	bare := *fx.Bundle
	bare.Centroids = nil
	if testutil.Novelty(&bare, test[0]) != 0 {
		t.Fatal("uncalibrated bundle should report 0 novelty")
	}
}

func TestRuntimeReportsNovelty(t *testing.T) {
	fx := testutil.Shared(t)
	rt, err := core.NewRuntime(fx.Bundle, core.RuntimeConfig{CacheSlots: 3})
	if err != nil {
		t.Fatal(err)
	}
	res, err := rt.ProcessFrame(fx.Corpus.Frames(synth.Test)[0])
	if err != nil {
		t.Fatal(err)
	}
	if res.Novelty < 0 {
		t.Fatalf("novelty %v", res.Novelty)
	}
}
