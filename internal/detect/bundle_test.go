package detect_test

import (
	"testing"

	"anole/internal/detect"
	"anole/internal/stats"
	"anole/internal/synth"
	"anole/internal/tensor"
	"anole/internal/testutil"
)

// TestScoreBatchMatchesScorePredictionsOnBundle runs every model of the
// profiled test bundle over the whole corpus: per frame, ScoreBatch —
// with frame features handed in, without, and over the frame alone —
// counts exactly what ScorePredictions counts on DetectBatch's
// predictions, and EvaluateFrames is their sum.
func TestScoreBatchMatchesScorePredictionsOnBundle(t *testing.T) {
	fx := testutil.Shared(t)
	var frames []*synth.Frame
	for _, c := range fx.Corpus.Clips {
		frames = append(frames, c.Frames...)
	}
	feats := make([]tensor.Vector, len(frames))
	for i, f := range frames {
		feats[i] = synth.FrameFeature(f)
	}
	for _, d := range fx.Bundle.Detectors {
		preds := d.DetectBatch(nil, frames)
		withFeats := d.ScoreBatch(nil, frames, feats)
		without := d.ScoreBatch(nil, frames, nil)
		var sum stats.PRF1
		for i, f := range frames {
			want := detect.ScorePredictions(preds[i], f)
			if withFeats[i] != want || without[i] != want {
				t.Fatalf("%s frame %d: ScoreBatch %+v (features given) / %+v (computed), ScorePredictions %+v", d.Name, i, withFeats[i], without[i], want)
			}
			if i%97 == 0 {
				if got := d.ScoreBatch(nil, frames[i:i+1], nil)[0]; got != want {
					t.Fatalf("%s frame %d: one-frame ScoreBatch %+v, ScorePredictions %+v", d.Name, i, got, want)
				}
			}
			sum = sum.Add(want)
		}
		if got := d.EvaluateFrames(frames); got != sum {
			t.Fatalf("%s: EvaluateFrames %+v, summed ScorePredictions %+v", d.Name, got, sum)
		}
	}
}
