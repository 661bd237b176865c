package decision

import (
	"math"
	"testing"

	"anole/internal/detect"
	"anole/internal/sampling"
	"anole/internal/scene"
	"anole/internal/stats"
	"anole/internal/synth"
	"anole/internal/xrand"
)

// fixture holds two scene-specialist detectors, an encoder and labeled
// samples for decision-model training.
type fixture struct {
	world   *synth.World
	enc     *scene.Encoder
	models  []*detect.Detector
	samples []sampling.LabeledFrame
	sceneA  synth.Scene
	sceneB  synth.Scene
}

func buildFixture(t *testing.T, seed uint64) fixture {
	t.Helper()
	w, err := synth.NewWorld(synth.DefaultConfig(seed))
	if err != nil {
		t.Fatal(err)
	}
	rng := xrand.New(seed + 1)
	fx := fixture{
		world:  w,
		sceneA: synth.Scene{Weather: synth.Clear, Location: synth.Urban, Time: synth.Daytime},
		sceneB: synth.Scene{Weather: synth.Clear, Location: synth.Highway, Time: synth.Night},
	}
	gen := func(s synth.Scene, n int) []*synth.Frame {
		frames := make([]*synth.Frame, n)
		for i := range frames {
			frames[i] = w.GenerateFrame(s, 1.2, rng)
		}
		return frames
	}
	poolA := gen(fx.sceneA, 120)
	poolB := gen(fx.sceneB, 120)

	fx.enc, err = scene.TrainEncoder(append(append([]*synth.Frame{}, poolA...), poolB...), nil,
		scene.EncoderConfig{Epochs: 20, RNG: rng})
	if err != nil {
		t.Fatal(err)
	}
	mkDet := func(name string, frames []*synth.Frame) *detect.Detector {
		d := detect.NewDetector(name, detect.Compressed, 8, rng)
		if err := d.Train(frames, nil, detect.TrainConfig{Epochs: 12, RNG: rng}); err != nil {
			t.Fatal(err)
		}
		return d
	}
	fx.models = []*detect.Detector{mkDet("A", poolA), mkDet("B", poolB)}
	for i, f := range poolA {
		if i%2 == 0 {
			fx.samples = append(fx.samples, sampling.LabeledFrame{Frame: f, ModelIdx: 0})
		}
	}
	for i, f := range poolB {
		if i%2 == 0 {
			fx.samples = append(fx.samples, sampling.LabeledFrame{Frame: f, ModelIdx: 1})
		}
	}
	return fx
}

func TestTrainAndSelect(t *testing.T) {
	fx := buildFixture(t, 200)
	m, err := Train(fx.enc, fx.samples, 2, Config{Epochs: 40, RNG: xrand.New(201)})
	if err != nil {
		t.Fatal(err)
	}
	rng := xrand.New(202)
	correct := 0
	const trials = 60
	for i := 0; i < trials; i++ {
		fa := fx.world.GenerateFrame(fx.sceneA, 1.2, rng)
		fb := fx.world.GenerateFrame(fx.sceneB, 1.2, rng)
		if best, _ := m.Best(fa); best == 0 {
			correct++
		}
		if best, _ := m.Best(fb); best == 1 {
			correct++
		}
	}
	acc := float64(correct) / float64(2*trials)
	if acc < 0.8 {
		t.Fatalf("decision accuracy = %v, want > 0.8", acc)
	}
}

func TestScoresAreDistribution(t *testing.T) {
	fx := buildFixture(t, 203)
	m, err := Train(fx.enc, fx.samples, 2, Config{Epochs: 10, RNG: xrand.New(204)})
	if err != nil {
		t.Fatal(err)
	}
	f := fx.world.GenerateFrame(fx.sceneA, 1, xrand.New(205))
	scores := m.Scores(f)
	if len(scores) != 2 {
		t.Fatalf("scores len = %d", len(scores))
	}
	var sum float64
	for _, s := range scores {
		if s < 0 || s > 1 {
			t.Fatalf("score %v out of range", s)
		}
		sum += s
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("scores sum to %v", sum)
	}
}

func TestRankConsistentWithScores(t *testing.T) {
	fx := buildFixture(t, 206)
	m, err := Train(fx.enc, fx.samples, 2, Config{Epochs: 10, RNG: xrand.New(207)})
	if err != nil {
		t.Fatal(err)
	}
	f := fx.world.GenerateFrame(fx.sceneB, 1, xrand.New(208))
	scores := m.Scores(f)
	rank := stats.RankDescending(scores)
	best, conf := m.Best(f)
	if best != rank[0] {
		t.Fatal("Best disagrees with the score ranking")
	}
	if conf != scores[best] {
		t.Fatal("confidence is not the top score")
	}
}

func TestTrainValidation(t *testing.T) {
	fx := buildFixture(t, 209)
	if _, err := Train(nil, fx.samples, 2, Config{RNG: xrand.New(1)}); err == nil {
		t.Fatal("nil encoder accepted")
	}
	if _, err := Train(fx.enc, nil, 2, Config{RNG: xrand.New(1)}); err == nil {
		t.Fatal("empty samples accepted")
	}
	if _, err := Train(fx.enc, fx.samples, 0, Config{RNG: xrand.New(1)}); err == nil {
		t.Fatal("n=0 accepted")
	}
	bad := []sampling.LabeledFrame{{Frame: fx.samples[0].Frame, ModelIdx: 5}}
	if _, err := Train(fx.enc, bad, 2, Config{RNG: xrand.New(1)}); err == nil {
		t.Fatal("out-of-range label accepted")
	}
}

func TestFromParts(t *testing.T) {
	fx := buildFixture(t, 210)
	m, err := Train(fx.enc, fx.samples, 2, Config{Epochs: 5, RNG: xrand.New(211)})
	if err != nil {
		t.Fatal(err)
	}
	rebuilt, err := FromParts(fx.enc, m.Head)
	if err != nil {
		t.Fatal(err)
	}
	f := fx.world.GenerateFrame(fx.sceneA, 1, xrand.New(212))
	a, b := m.Scores(f), rebuilt.Scores(f)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("FromParts model differs")
		}
	}
	if _, err := FromParts(nil, m.Head); err == nil {
		t.Fatal("nil encoder accepted")
	}
	if _, err := FromParts(fx.enc, nil); err == nil {
		t.Fatal("nil head accepted")
	}
}

func TestFLOPsAndWeights(t *testing.T) {
	fx := buildFixture(t, 213)
	m, err := Train(fx.enc, fx.samples, 2, Config{Epochs: 3, RNG: xrand.New(214)})
	if err != nil {
		t.Fatal(err)
	}
	if m.FLOPs() != fx.enc.Weights.FLOPs()+m.Head.FLOPs() {
		t.Fatal("FLOPs composition wrong")
	}
	if m.WeightBytes() <= m.Head.WeightBytes() {
		t.Fatal("weights should include encoder")
	}
	// The decision stack must be far cheaper than a deep detector per
	// frame (Table IV shape: M_scene+M_decision ≪ YOLOv3).
	deep := detect.NewDetector("deep", detect.Deep, 8, xrand.New(215))
	if m.FLOPs() >= deep.FrameFLOPs(64) {
		t.Fatal("decision stack should be cheaper than deep detection")
	}
}

func TestConfusionOnOracle(t *testing.T) {
	fx := buildFixture(t, 216)
	m, err := Train(fx.enc, fx.samples, 2, Config{Epochs: 40, RNG: xrand.New(217)})
	if err != nil {
		t.Fatal(err)
	}
	rng := xrand.New(218)
	var frames []*synth.Frame
	for i := 0; i < 40; i++ {
		frames = append(frames, fx.world.GenerateFrame(fx.sceneA, 1.2, rng))
		frames = append(frames, fx.world.GenerateFrame(fx.sceneB, 1.2, rng))
	}
	cm := m.ConfusionOn(fx.models, frames)
	if cm.K != 2 {
		t.Fatalf("confusion size %d", cm.K)
	}
	if cm.Accuracy() < 0.6 {
		t.Fatalf("top-1 selection accuracy = %v", cm.Accuracy())
	}
}

func TestTrainWithEarlyStopping(t *testing.T) {
	fx := buildFixture(t, 219)
	m, err := Train(fx.enc, fx.samples, 2, Config{Epochs: 80, Patience: 5, RNG: xrand.New(220)})
	if err != nil {
		t.Fatal(err)
	}
	if m.N != 2 {
		t.Fatalf("N = %d", m.N)
	}
}
