package detect

import (
	"testing"

	"anole/internal/nn"
	"anole/internal/stats"
	"anole/internal/synth"
	"anole/internal/tensor"
	"anole/internal/xrand"
)

func newTestWorld(t *testing.T, seed uint64) *synth.World {
	t.Helper()
	w, err := synth.NewWorld(synth.DefaultConfig(seed))
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func genFrames(w *synth.World, s synth.Scene, n int, rng *xrand.RNG) []*synth.Frame {
	frames := make([]*synth.Frame, n)
	for i := range frames {
		frames[i] = w.GenerateFrame(s, 1, rng)
	}
	return frames
}

func TestArchFLOPsRatio(t *testing.T) {
	rng := xrand.New(1)
	deep := NewDetector("deep", Deep, 8, rng)
	tiny := NewDetector("tiny", Compressed, 8, rng)
	ratio := float64(deep.FLOPs()) / float64(tiny.FLOPs())
	// The paper's YOLOv3 / YOLOv3-tiny gap is 65.86/5.56 ≈ 11.8×.
	if ratio < 6 || ratio > 20 {
		t.Fatalf("deep/tiny FLOPs ratio = %v, want roughly 10x", ratio)
	}
}

func TestDetectFrameShape(t *testing.T) {
	w := newTestWorld(t, 2)
	rng := xrand.New(3)
	d := NewDetector("d", Compressed, 8, rng)
	f := w.GenerateFrame(synth.Scene{Weather: synth.Clear, Location: synth.Urban}, 1, rng)
	preds := d.DetectFrame(nil, f)
	if len(preds) != f.NumCells() {
		t.Fatalf("preds = %d", len(preds))
	}
	for _, p := range preds {
		if p.Objectness < 0 || p.Objectness > 1 {
			t.Fatalf("objectness %v", p.Objectness)
		}
		if int(p.Class) < 0 || int(p.Class) >= synth.NumClasses {
			t.Fatalf("class %v", p.Class)
		}
	}
	// dst reuse
	preds2 := d.DetectFrame(preds, f)
	if &preds2[0] != &preds[0] {
		t.Fatal("DetectFrame should reuse dst")
	}
}

func TestFromNetworkValidation(t *testing.T) {
	rng := xrand.New(4)
	good := nn.NewMLP(nn.MLPConfig{InDim: synth.CellInputDim(8), Hidden: []int{4}, OutDim: synth.DetectorOutDim}, rng)
	if _, err := FromWeights("x", Compressed, 8, good.Freeze()); err != nil {
		t.Fatalf("valid network rejected: %v", err)
	}
	badIn := nn.NewMLP(nn.MLPConfig{InDim: 7, OutDim: synth.DetectorOutDim}, rng)
	if _, err := FromWeights("x", Compressed, 8, badIn.Freeze()); err == nil {
		t.Fatal("wrong input dim accepted")
	}
	badOut := nn.NewMLP(nn.MLPConfig{InDim: synth.CellInputDim(8), OutDim: 3}, rng)
	if _, err := FromWeights("x", Compressed, 8, badOut.Freeze()); err == nil {
		t.Fatal("wrong output dim accepted")
	}
}

func TestBuildSamplesBalance(t *testing.T) {
	w := newTestWorld(t, 5)
	rng := xrand.New(6)
	frames := genFrames(w, synth.Scene{Weather: synth.Clear, Location: synth.Urban, Time: synth.Daytime}, 40, rng)
	samples := BuildSamples(frames, 1.0, rng)
	if len(samples) == 0 {
		t.Fatal("no samples")
	}
	var pos, neg int
	for _, s := range samples {
		if s.Y[0] > 0 {
			pos++
		} else {
			neg++
		}
	}
	if pos == 0 || neg == 0 {
		t.Fatalf("unbalanced: %d pos, %d neg", pos, neg)
	}
	ratio := float64(neg) / float64(pos)
	if ratio > 2.5 {
		t.Fatalf("background ratio = %v, want ~1", ratio)
	}
}

func TestTrainImprovesF1(t *testing.T) {
	w := newTestWorld(t, 7)
	rng := xrand.New(8)
	scene := synth.Scene{Weather: synth.Clear, Location: synth.Urban, Time: synth.Daytime}
	train := genFrames(w, scene, 120, rng)
	test := genFrames(w, scene, 40, rng)

	d := NewDetector("tiny", Compressed, 8, rng)
	before := d.EvaluateFrames(test).F1
	if err := d.Train(train, nil, TrainConfig{Epochs: 15, RNG: rng}); err != nil {
		t.Fatal(err)
	}
	after := d.EvaluateFrames(test).F1
	if after <= before {
		t.Fatalf("training did not improve F1: %v -> %v", before, after)
	}
	if after < 0.5 {
		t.Fatalf("in-scene F1 = %v, want > 0.5", after)
	}
}

func TestSceneSpecialistBeatsItselfOutOfScene(t *testing.T) {
	// The core premise of the paper: a compressed model trained on one
	// scene degrades on a very different scene.
	w := newTestWorld(t, 9)
	rng := xrand.New(10)
	home := synth.Scene{Weather: synth.Clear, Location: synth.Urban, Time: synth.Daytime}
	away := synth.Scene{Weather: synth.Foggy, Location: synth.Tunnel, Time: synth.Night}
	train := genFrames(w, home, 150, rng)
	homeTest := genFrames(w, home, 50, rng)
	awayTest := genFrames(w, away, 50, rng)

	d := NewDetector("tiny", Compressed, 8, rng)
	if err := d.Train(train, nil, TrainConfig{Epochs: 15, RNG: rng}); err != nil {
		t.Fatal(err)
	}
	homeF1 := d.EvaluateFrames(homeTest).F1
	awayF1 := d.EvaluateFrames(awayTest).F1
	if homeF1 <= awayF1 {
		t.Fatalf("specialist should degrade out of scene: home %v vs away %v", homeF1, awayF1)
	}
}

func TestTrainNoFrames(t *testing.T) {
	rng := xrand.New(11)
	d := NewDetector("x", Compressed, 8, rng)
	if err := d.Train(nil, nil, TrainConfig{RNG: rng}); err == nil {
		t.Fatal("expected error on empty training set")
	}
}

func TestScorePredictionsMatching(t *testing.T) {
	w := newTestWorld(t, 12)
	rng := xrand.New(13)
	var f *synth.Frame
	for {
		f = w.GenerateFrame(synth.Scene{Weather: synth.Clear, Location: synth.Urban, Time: synth.Daytime}, 2, rng)
		if len(f.Objects) >= 2 {
			break
		}
	}
	// Perfect predictions.
	preds := make([]CellPred, f.NumCells())
	for c := range preds {
		if obj, ok := f.ObjectAt(c); ok {
			preds[c] = CellPred{Objectness: 0.9, Class: obj.Class}
		} else {
			preds[c] = CellPred{Objectness: 0.1}
		}
	}
	m := ScorePredictions(preds, f)
	if m.F1 != 1 {
		t.Fatalf("perfect predictions F1 = %v", m.F1)
	}

	// Wrong class on one object: one FP and one FN.
	obj := f.Objects[0]
	preds[obj.Cell].Class = synth.Class((int(obj.Class) + 1) % synth.NumClasses)
	m = ScorePredictions(preds, f)
	if m.TP != len(f.Objects)-1 || m.FP != 1 || m.FN != 1 {
		t.Fatalf("class-mistake counts: %+v", m)
	}

	// All-negative predictions: zero precision and recall.
	for c := range preds {
		preds[c].Objectness = 0
	}
	m = ScorePredictions(preds, f)
	if m.TP != 0 || m.FN != len(f.Objects) {
		t.Fatalf("all-negative counts: %+v", m)
	}
}

func TestFrameFLOPs(t *testing.T) {
	rng := xrand.New(16)
	d := NewDetector("x", Compressed, 8, rng)
	if d.FrameFLOPs(64) != d.FLOPs()*64 {
		t.Fatal("frame FLOPs wrong")
	}
	if d.FeatDim() != 8 {
		t.Fatal("feat dim wrong")
	}
}

func TestTrainWithEarlyStopping(t *testing.T) {
	w := newTestWorld(t, 17)
	rng := xrand.New(18)
	scene := synth.Scene{Weather: synth.Clear, Location: synth.Residential, Time: synth.Daytime}
	train := genFrames(w, scene, 60, rng)
	val := genFrames(w, scene, 20, rng)
	d := NewDetector("x", Compressed, 8, rng)
	if err := d.Train(train, val, TrainConfig{Epochs: 30, Patience: 3, RNG: rng}); err != nil {
		t.Fatal(err)
	}
	if f1 := d.EvaluateFrames(val).F1; f1 < 0.3 {
		t.Fatalf("early-stopped detector too weak: F1 %v", f1)
	}
}

func BenchmarkDetectFrame(b *testing.B) {
	w, err := synth.NewWorld(synth.DefaultConfig(1))
	if err != nil {
		b.Fatal(err)
	}
	rng := xrand.New(2)
	d := NewDetector("x", Compressed, 8, rng)
	f := w.GenerateFrame(synth.Scene{Weather: synth.Clear, Location: synth.Urban, Time: synth.Daytime}, 1, rng)
	preds := make([]CellPred, f.NumCells())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.DetectFrame(preds, f)
	}
}

// BenchmarkScoreBatch scores one frame with its feature handed in, the
// form the serving tick runs.
func BenchmarkScoreBatch(b *testing.B) {
	w, err := synth.NewWorld(synth.DefaultConfig(1))
	if err != nil {
		b.Fatal(err)
	}
	rng := xrand.New(2)
	d := NewDetector("x", Compressed, 8, rng)
	frames := []*synth.Frame{w.GenerateFrame(synth.Scene{Weather: synth.Clear, Location: synth.Urban, Time: synth.Daytime}, 1, rng)}
	feats := []tensor.Vector{synth.FrameFeature(frames[0])}
	dst := make([]stats.PRF1, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.ScoreBatch(dst, frames, feats)
	}
}
