package baselines

import (
	"testing"

	"anole/internal/detect"
	"anole/internal/synth"
	"anole/internal/xrand"
)

func smallCorpus(t *testing.T, seed uint64) *synth.Corpus {
	t.Helper()
	w, err := synth.NewWorld(synth.DefaultConfig(seed))
	if err != nil {
		t.Fatal(err)
	}
	return w.GenerateCorpus(synth.DefaultProfiles(0.2))
}

func TestTrainSDM(t *testing.T) {
	corpus := smallCorpus(t, 1)
	train := corpus.Frames(synth.Train)
	s, err := TrainSDM(train, nil, detect.TrainConfig{Epochs: 8, RNG: xrand.New(2)})
	if err != nil {
		t.Fatal(err)
	}
	if s.Name() != "SDM" || len(s.Detectors()) != 1 || s.OverheadFLOPs() != 0 {
		t.Fatal("SDM surface wrong")
	}
	if s.Select(train[0]).Arch.Name != detect.Deep.Name {
		t.Fatal("SDM must use the deep architecture")
	}
	if f1 := s.Select(train[0]).EvaluateFrames(corpus.Frames(synth.Val)).F1; f1 < 0.2 {
		t.Fatalf("SDM F1 = %v, too weak", f1)
	}
}

func TestTrainSSM(t *testing.T) {
	corpus := smallCorpus(t, 3)
	train := corpus.Frames(synth.Train)
	s, err := TrainSSM(train, nil, detect.TrainConfig{Epochs: 8, RNG: xrand.New(4)})
	if err != nil {
		t.Fatal(err)
	}
	if s.Select(train[0]).Arch.Name != detect.Compressed.Name {
		t.Fatal("SSM must use the compressed architecture")
	}
	if s.Name() != "SSM" || s.OverheadFLOPs() != 0 {
		t.Fatal("SSM surface wrong")
	}
}

func TestDeepBeatsShallowGlobally(t *testing.T) {
	// The capacity premise: a deep model trained on everything should
	// beat a compressed model trained on everything, on mixed scenes.
	w, err := synth.NewWorld(synth.DefaultConfig(5))
	if err != nil {
		t.Fatal(err)
	}
	corpus := w.GenerateCorpus(synth.DefaultProfiles(0.35))
	train := corpus.Frames(synth.Train)
	test := corpus.Frames(synth.Test)
	sdm, err := TrainSDM(train, nil, detect.TrainConfig{Epochs: 25, RNG: xrand.New(6)})
	if err != nil {
		t.Fatal(err)
	}
	ssm, err := TrainSSM(train, nil, detect.TrainConfig{Epochs: 25, RNG: xrand.New(7)})
	if err != nil {
		t.Fatal(err)
	}
	deepF1 := sdm.Select(test[0]).EvaluateFrames(test).F1
	tinyF1 := ssm.Select(test[0]).EvaluateFrames(test).F1
	if deepF1 <= tinyF1 {
		t.Fatalf("SDM F1 %v not above SSM %v", deepF1, tinyF1)
	}
}

func TestTrainCDG(t *testing.T) {
	corpus := smallCorpus(t, 8)
	train := corpus.Frames(synth.Train)
	c, err := TrainCDG(train, nil, CDGConfig{K: 4, Train: detect.TrainConfig{Epochs: 6}, RNG: xrand.New(9)})
	if err != nil {
		t.Fatal(err)
	}
	if c.Name() != "CDG" {
		t.Fatal("name wrong")
	}
	if len(c.Detectors()) != 4 {
		t.Fatalf("detectors = %d", len(c.Detectors()))
	}
	if c.OverheadFLOPs() <= 0 {
		t.Fatal("CDG selection has nonzero cost")
	}
	// Selection must be deterministic per frame.
	f := train[0]
	if c.Select(f) != c.Select(f) {
		t.Fatal("selection not deterministic")
	}
	// All selected detectors must come from the trained set.
	found := false
	sel := c.Select(f)
	for _, d := range c.Detectors() {
		if d == sel {
			found = true
		}
	}
	if !found {
		t.Fatal("selected detector not in set")
	}
}

func TestTrainDMM(t *testing.T) {
	corpus := smallCorpus(t, 10)
	train := corpus.Frames(synth.Train)
	d, err := TrainDMM(train, nil, detect.TrainConfig{Epochs: 6, RNG: xrand.New(11)})
	if err != nil {
		t.Fatal(err)
	}
	if d.Name() != "DMM" || d.OverheadFLOPs() != 0 {
		t.Fatal("DMM surface wrong")
	}
	if len(d.Detectors()) != synth.NumDatasets {
		t.Fatalf("detectors = %d, want one per dataset", len(d.Detectors()))
	}
	// Selection routes by dataset.
	for _, f := range train[:20] {
		det := d.Select(f)
		if det.Name != "DMM_"+f.Dataset.String() {
			t.Fatalf("frame from %v routed to %s", f.Dataset, det.Name)
		}
	}
}

func TestDMMFallback(t *testing.T) {
	corpus := smallCorpus(t, 12)
	var kittiOnly []*synth.Frame
	for _, f := range corpus.Frames(synth.Train) {
		if f.Dataset == synth.KITTI {
			kittiOnly = append(kittiOnly, f)
		}
	}
	d, err := TrainDMM(kittiOnly, nil, detect.TrainConfig{Epochs: 4, RNG: xrand.New(13)})
	if err != nil {
		t.Fatal(err)
	}
	// A BDD frame must fall back to the KITTI model, not crash.
	var bdd *synth.Frame
	for _, f := range corpus.Frames(synth.Train) {
		if f.Dataset == synth.BDD100k {
			bdd = f
			break
		}
	}
	if det := d.Select(bdd); det == nil {
		t.Fatal("fallback selection returned nil")
	}
}

func TestTrainValidationErrors(t *testing.T) {
	if _, err := TrainSDM(nil, nil, detect.TrainConfig{}); err == nil {
		t.Fatal("SDM empty accepted")
	}
	if _, err := TrainSSM(nil, nil, detect.TrainConfig{}); err == nil {
		t.Fatal("SSM empty accepted")
	}
	if _, err := TrainCDG(nil, nil, CDGConfig{}); err == nil {
		t.Fatal("CDG empty accepted")
	}
	if _, err := TrainDMM(nil, nil, detect.TrainConfig{}); err == nil {
		t.Fatal("DMM empty accepted")
	}
}

// TestBaselineScoreMatchesSelect pins Score, which scores each selected
// detector's frames in one batch, against the per-frame form
// s.Select(f) scoring f alone, for all four selectors, on shuffled test
// frames so CDG's and DMM's groups interleave, with DMM missing the SHD
// model so SHD frames take its fallback.
func TestBaselineScoreMatchesSelect(t *testing.T) {
	corpus := smallCorpus(t, 16)
	train := corpus.Frames(synth.Train)
	var noSHD []*synth.Frame
	for _, f := range train {
		if f.Dataset != synth.SHD {
			noSHD = append(noSHD, f)
		}
	}
	tc := detect.TrainConfig{Epochs: 2, RNG: xrand.New(17)}
	sdm, err := TrainSDM(train, nil, tc)
	if err != nil {
		t.Fatal(err)
	}
	ssm, err := TrainSSM(train, nil, tc)
	if err != nil {
		t.Fatal(err)
	}
	cdg, err := TrainCDG(train, nil, CDGConfig{K: 3, Train: tc, RNG: xrand.New(18)})
	if err != nil {
		t.Fatal(err)
	}
	dmm, err := TrainDMM(noSHD, nil, tc)
	if err != nil {
		t.Fatal(err)
	}
	frames := corpus.Frames(synth.Test)
	xrand.New(19).Shuffle(len(frames), func(i, j int) { frames[i], frames[j] = frames[j], frames[i] })
	frames = frames[:min(len(frames), 150)]
	fallback := 0
	for _, f := range frames {
		if _, ok := dmm.byDataset[f.Dataset]; !ok {
			fallback++
		}
	}
	if fallback == 0 || fallback == len(frames) {
		t.Fatalf("%d of %d frames take DMM's fallback; want some, not all", fallback, len(frames))
	}
	for _, s := range []Selector{sdm, ssm, cdg, dmm} {
		got := Score(s, frames)
		if len(got) != len(frames) {
			t.Fatalf("%s: %d counts for %d frames", s.Name(), len(got), len(frames))
		}
		used := make(map[*detect.Detector]bool)
		for i, f := range frames {
			used[s.Select(f)] = true
			if want := s.Select(f).ScoreBatch(nil, []*synth.Frame{f}, nil)[0]; got[i] != want {
				t.Fatalf("%s frame %d: Score %+v, Select(f) on the frame alone %+v", s.Name(), i, got[i], want)
			}
		}
		if s != Selector(sdm) && s != Selector(ssm) && len(used) < 2 {
			t.Fatalf("%s selected one detector for every frame; the grouping went untested", s.Name())
		}
	}
	if got := Score(sdm, nil); len(got) != 0 {
		t.Fatalf("Score with no frames: %d counts", len(got))
	}
}
