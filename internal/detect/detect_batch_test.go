package detect

import (
	"math"
	"testing"

	"anole/internal/synth"
	"anole/internal/tensor"
	"anole/internal/xrand"
)

// TestDetectBatchMatchesDetectFrame pins the batched detector bitwise
// against the per-frame path across enough frames to force multiple
// staging chunks (25 frames × 64 cells = 1600 rows > detectBatchRows).
// Equality is exact: batched dense layers keep each dot product's
// summation order and the sigmoid/argmax decode is shared code.
func TestDetectBatchMatchesDetectFrame(t *testing.T) {
	w := newTestWorld(t, 61)
	rng := xrand.New(62)
	d := NewDetector("d", Compressed, 8, rng)
	frames := genFrames(w, synth.Scene{Weather: synth.Clear, Location: synth.Urban, Time: synth.Daytime}, 25, rng)
	got := d.DetectBatch(nil, frames)
	if len(got) != len(frames) {
		t.Fatalf("DetectBatch returned %d frame slots, want %d", len(got), len(frames))
	}
	for i, f := range frames {
		want := d.DetectFrame(nil, f)
		if len(got[i]) != len(want) {
			t.Fatalf("frame %d: %d preds, want %d", i, len(got[i]), len(want))
		}
		for c := range want {
			if got[i][c] != want[c] {
				t.Fatalf("frame %d cell %d: batched %+v, sequential %+v", i, c, got[i][c], want[c])
			}
		}
	}
}

// TestScoreBatchMatchesDetectBatch pins the scoring tail against the
// decoding one across staging chunks: per frame, ScoreBatch — with each
// frame's FrameFeature handed in and without — counts exactly what
// ScorePredictions counts on DetectBatch's predictions.
func TestScoreBatchMatchesDetectBatch(t *testing.T) {
	w := newTestWorld(t, 67)
	rng := xrand.New(68)
	d := NewDetector("d", Compressed, 8, rng)
	frames := genFrames(w, synth.Scene{Weather: synth.Clear, Location: synth.Urban, Time: synth.Daytime}, 11, rng)
	feats := make([]tensor.Vector, len(frames))
	for i, f := range frames {
		feats[i] = synth.FrameFeature(f)
	}
	preds := d.DetectBatch(nil, frames)
	withFeats := d.ScoreBatch(nil, frames, feats)
	without := d.ScoreBatch(nil, frames, nil)
	for i, f := range frames {
		want := ScorePredictions(preds[i], f)
		if withFeats[i] != want || without[i] != want {
			t.Fatalf("frame %d: ScoreBatch %+v (features given) / %+v (computed), ScorePredictions %+v", i, withFeats[i], without[i], want)
		}
	}
	if out := d.ScoreBatch(nil, nil, nil); len(out) != 0 {
		t.Fatalf("empty batch returned %d scores", len(out))
	}
}

// TestDetectBatchMixedDetectors checks batched equivalence holds for the
// deep architecture and for a quantized head — both are just other
// frozen programs behind the same batch path.
func TestDetectBatchMixedDetectors(t *testing.T) {
	w := newTestWorld(t, 63)
	rng := xrand.New(64)
	frames := genFrames(w, synth.Scene{Weather: synth.Rainy, Location: synth.Highway, Time: synth.Night}, 4, rng)

	deep := NewDetector("deep", Deep, 8, rng)
	qw, err := deep.Weights().Quantize(8)
	if err != nil {
		t.Fatal(err)
	}
	quant, err := FromWeights("deep-q8", Deep, 8, qw)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range []*Detector{deep, quant} {
		got := d.DetectBatch(nil, frames)
		for i, f := range frames {
			want := d.DetectFrame(nil, f)
			for c := range want {
				if got[i][c] != want[c] {
					t.Fatalf("%s frame %d cell %d: batched %+v, sequential %+v", d.Name, i, c, got[i][c], want[c])
				}
			}
		}
	}
}

// TestDetectBatchReusesDsts pins the dst-reuse contract: pre-sized
// per-frame slices are written in place, matching DetectFrame's reuse
// semantics, and the empty batch is a no-op.
func TestDetectBatchReusesDsts(t *testing.T) {
	w := newTestWorld(t, 65)
	rng := xrand.New(66)
	d := NewDetector("d", Compressed, 8, rng)
	frames := genFrames(w, synth.Scene{Weather: synth.Clear, Location: synth.Urban}, 3, rng)
	dsts := make([][]CellPred, len(frames))
	for i, f := range frames {
		dsts[i] = make([]CellPred, f.NumCells())
	}
	got := d.DetectBatch(dsts, frames)
	for i := range got {
		if &got[i][0] != &dsts[i][0] {
			t.Fatalf("frame %d: DetectBatch should reuse the pre-sized dst slice", i)
		}
	}
	if out := d.DetectBatch(nil, nil); len(out) != 0 {
		t.Fatalf("empty batch returned %d slots", len(out))
	}
}

// TestDetectFrameMatchesPerCellInfer pins DetectFrame, which batches a
// frame's cells, bitwise against the head run one cell at a time
// through the thawed network's Forward (MulVec per layer), for
// full-precision heads of both architectures and a quantized one.
func TestDetectFrameMatchesPerCellInfer(t *testing.T) {
	w := newTestWorld(t, 63)
	rng := xrand.New(64)
	frames := genFrames(w, synth.Scene{Weather: synth.Rainy, Location: synth.Highway, Time: synth.Night}, 6, rng)
	deep := NewDetector("deep", Deep, 8, rng)
	small := NewDetector("small", Compressed, 8, rng)
	qw, err := small.Weights().Quantize(8)
	if err != nil {
		t.Fatal(err)
	}
	quant, err := FromWeights("q8", Compressed, 8, qw)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range []*Detector{deep, small, quant} {
		net := d.Weights().Thaw()
		for i, f := range frames {
			got := d.DetectFrame(nil, f)
			ctx := synth.FrameFeature(f)
			for c := 0; c < f.NumCells(); c++ {
				out := net.Forward(synth.CellInput(nil, f, c, ctx))
				obj := 1 / (1 + math.Exp(-out[0]))
				class := synth.Class(tensor.Vector(out[1:]).Argmax())
				if math.Float64bits(got[c].Objectness) != math.Float64bits(obj) || got[c].Class != class {
					t.Fatalf("%s frame %d cell %d: DetectFrame %+v, per-cell Forward {%v %v}", d.Name, i, c, got[c], obj, class)
				}
			}
		}
	}
}

// TestDetectFrameZeroAllocs pins DetectFrame with a held dst at zero
// heap allocations: the batch scratch, frame-context buffer included,
// comes from the shared pool and the one-frame batch stays on the stack. CI's allocations job
// re-measures it on every push.
func TestDetectFrameZeroAllocs(t *testing.T) {
	if raceDetectorEnabled {
		t.Skip("the race detector makes sync.Pool drop values")
	}
	w := newTestWorld(t, 65)
	rng := xrand.New(66)
	d := NewDetector("d", Compressed, 8, rng)
	f := genFrames(w, synth.Scene{Weather: synth.Clear, Location: synth.Urban, Time: synth.Daytime}, 1, rng)[0]
	dst := d.DetectFrame(nil, f)
	if allocs := testing.AllocsPerRun(100, func() { dst = d.DetectFrame(dst, f) }); allocs != 0 {
		t.Fatalf("DetectFrame with held dst: %v allocs/op, want 0", allocs)
	}
}

// TestScoreBatchZeroAllocs pins ScoreBatch with a held dst at zero heap
// allocations, with frame features handed in (the tick's and the F1
// table's form) and without (EvaluateFrame's). CI's allocations job
// re-measures it on every push.
func TestScoreBatchZeroAllocs(t *testing.T) {
	if raceDetectorEnabled {
		t.Skip("the race detector makes sync.Pool drop values")
	}
	w := newTestWorld(t, 69)
	rng := xrand.New(70)
	d := NewDetector("d", Compressed, 8, rng)
	frames := genFrames(w, synth.Scene{Weather: synth.Clear, Location: synth.Urban, Time: synth.Daytime}, 3, rng)
	feats := make([]tensor.Vector, len(frames))
	for i, f := range frames {
		feats[i] = synth.FrameFeature(f)
	}
	dst := d.ScoreBatch(nil, frames, feats)
	for _, fs := range [][]tensor.Vector{feats, nil} {
		if allocs := testing.AllocsPerRun(100, func() { dst = d.ScoreBatch(dst, frames, fs) }); allocs != 0 {
			t.Fatalf("ScoreBatch with held dst (features given: %v): %v allocs/op, want 0", fs != nil, allocs)
		}
	}
	f := frames[0]
	if allocs := testing.AllocsPerRun(100, func() { d.EvaluateFrame(f) }); allocs != 0 {
		t.Fatalf("EvaluateFrame: %v allocs/op, want 0", allocs)
	}
}

// TestScoreTableMatchesEvaluateFrame pins the (model × frame) table
// against one-frame EvaluateFrame for every cell, at one frame short of,
// exactly at and one frame past a ScoreBatch chunk, and with no frames.
// One model is trained so true positives occur; the others are not.
func TestScoreTableMatchesEvaluateFrame(t *testing.T) {
	w := newTestWorld(t, 71)
	rng := xrand.New(72)
	var frames []*synth.Frame
	for _, s := range []synth.Scene{
		{Weather: synth.Clear, Location: synth.Urban, Time: synth.Daytime},
		{Weather: synth.Rainy, Location: synth.Highway, Time: synth.Night},
	} {
		frames = append(frames, genFrames(w, s, (tableChunk+2)/2, rng)...)
	}
	trained := NewDetector("trained", Compressed, 8, rng)
	if err := trained.Train(frames[:20], nil, TrainConfig{Epochs: 5, RNG: rng}); err != nil {
		t.Fatal(err)
	}
	models := []*Detector{trained, NewDetector("c", Compressed, 8, rng), NewDetector("d", Deep, 8, rng)}
	tp := 0
	for _, n := range []int{0, tableChunk - 1, tableChunk, tableChunk + 1} {
		table := ScoreTable(models, frames[:n])
		if len(table) != len(models) {
			t.Fatalf("%d frames: %d rows for %d models", n, len(table), len(models))
		}
		for m, d := range models {
			if len(table[m]) != n {
				t.Fatalf("%d frames: model %d row has %d cells", n, m, len(table[m]))
			}
			for i, f := range frames[:n] {
				if want := d.EvaluateFrame(f); table[m][i] != want {
					t.Fatalf("%d frames: model %s frame %d: table %+v, EvaluateFrame %+v", n, d.Name, i, table[m][i], want)
				}
				tp += table[m][i].TP
			}
		}
	}
	if tp == 0 {
		t.Fatal("no true positive in any table; the comparison covered no match")
	}
}
