package detect

import (
	"fmt"
	"math"
	"testing"

	"anole/internal/stats"
	"anole/internal/synth"
	"anole/internal/tensor"
	"anole/internal/xrand"
)

// evaluateFrame scores d on f alone: ScoreBatch over the one frame, its
// batch and destination on the stack.
func evaluateFrame(d *Detector, f *synth.Frame) stats.PRF1 {
	var m [1]stats.PRF1
	frames := [1]*synth.Frame{f}
	return d.ScoreBatch(m[:], frames[:], nil)[0]
}

// stagedRows is the row budget of stagedLogits' chunks.
const stagedRows = 512

// stagedLogits is the reference for infer: every cell's whole input row
// — the cell's features, the frame's channel means (from feats when
// given), brightness and contrast — is copied into one staged matrix,
// whole frames at a time and at most stagedRows rows per chunk (always
// at least one frame), and the head runs InferBatch over each chunk.
// It returns each frame's logits, one row of OutDim per cell.
func stagedLogits(d *Detector, frames []*synth.Frame, feats []tensor.Vector) [][]float64 {
	fd, inDim, outDim := d.featDim, d.weights.InDim(), d.weights.OutDim()
	logits := make([][]float64, len(frames))
	for start := 0; start < len(frames); {
		end, rows := start, 0
		for end < len(frames) && (end == start || rows+frames[end].NumCells() <= stagedRows) {
			rows += frames[end].NumCells()
			end++
		}
		in := tensor.NewMatrix(rows, inDim)
		r := 0
		for j := start; j < end; j++ {
			f := frames[j]
			means := synth.ChannelMeansInto(nil, f)
			if feats != nil {
				means = feats[j][:fd]
			}
			for c := 0; c < f.NumCells(); c++ {
				row := in.Row(r)
				copy(row[:fd], f.Cell(c))
				copy(row[fd:], means)
				row[2*fd], row[2*fd+1] = f.Brightness, f.Contrast
				r++
			}
		}
		out := d.weights.InferBatch(nil, in, nil)
		r = 0
		for j := start; j < end; j++ {
			cells := frames[j].NumCells()
			logits[j] = out.Data[r*outDim : (r+cells)*outDim]
			r += cells
		}
		start = end
	}
	return logits
}

// TestDetectBatchMatchesDetectFrame pins the batched detector bitwise
// against the per-frame path over 25 frames. Equality is exact: each
// cell's dot products keep their summation order whatever the batch and
// the sigmoid/argmax decode is shared code.
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

// TestInferMatchesStagedReference pins the in-place infer — each frame's
// cells read where they lie, its context as a shared suffix — against
// the staged reference, bit for bit on the logits, and ScoreBatch and
// DetectBatch, with and without frame features, against scoring and
// decoding the reference's logits. Frames have 64, 7, 1 and 0 cells
// (the short ones are re-slices of whole frames, so their Cells have
// slack capacity, one with a partial cell past its last whole one), in
// batches of 1 and 9 frames, for full-precision heads of both
// architectures (one trained) and q8 and q4 quantized ones.
func TestInferMatchesStagedReference(t *testing.T) {
	w := newTestWorld(t, 73)
	rng := xrand.New(74)
	whole := genFrames(w, synth.Scene{Weather: synth.Clear, Location: synth.Urban, Time: synth.Daytime}, 12, rng)
	const fd = 8
	cut := func(f *synth.Frame, values int) *synth.Frame {
		g := *f
		g.Cells = f.Cells[:values]
		return &g
	}
	shapes := []*synth.Frame{whole[0], cut(whole[1], 7*fd), cut(whole[2], fd), cut(whole[3], 0), cut(whole[4], 7*fd+3)}
	batches := [][]*synth.Frame{}
	for _, f := range shapes {
		batches = append(batches, []*synth.Frame{f})
	}
	batches = append(batches, []*synth.Frame{whole[5], shapes[1], whole[6], shapes[2], whole[7], shapes[3], whole[8], whole[9], shapes[4]})
	for _, b := range batches {
		for _, f := range b {
			if n := f.NumCells(); n != 64 && n != 7 && n != 1 && n != 0 {
				t.Fatalf("test frame has %d cells", n)
			}
		}
	}

	trained := NewDetector("trained", Compressed, fd, rng)
	if err := trained.Train(whole[:8], nil, TrainConfig{Epochs: 5, RNG: rng}); err != nil {
		t.Fatal(err)
	}
	dets := []*Detector{trained, NewDetector("deep", Deep, fd, rng)}
	for _, bits := range []int{8, 4} {
		qw, err := trained.Weights().Quantize(bits)
		if err != nil {
			t.Fatal(err)
		}
		q, err := FromWeights(fmt.Sprintf("q%d", bits), Compressed, fd, qw)
		if err != nil {
			t.Fatal(err)
		}
		dets = append(dets, q)
	}

	for _, d := range dets {
		for bi, frames := range batches {
			feats := make([]tensor.Vector, len(frames))
			for i, f := range frames {
				feats[i] = synth.FrameFeature(f)
			}
			for _, fs := range [][]tensor.Vector{nil, feats} {
				label := fmt.Sprintf("%s batch %d (features given: %v)", d.Name, bi, fs != nil)
				want := stagedLogits(d, frames, fs)
				seen := 0
				d.infer(frames, fs, func(j int, logits []float64) {
					seen++
					if len(logits) != len(want[j]) {
						t.Fatalf("%s frame %d: %d logits, want %d", label, j, len(logits), len(want[j]))
					}
					for i, v := range want[j] {
						if math.Float64bits(logits[i]) != math.Float64bits(v) {
							t.Fatalf("%s frame %d logit %d: %v, staged %v", label, j, i, logits[i], v)
						}
					}
				})
				if seen != len(frames) {
					t.Fatalf("%s: tail saw %d frames of %d", label, seen, len(frames))
				}
				scores := d.ScoreBatch(nil, frames, fs)
				var preds [][]CellPred
				if fs == nil {
					preds = d.DetectBatch(nil, frames)
				}
				for j, f := range frames {
					if s := scoreLogits(want[j], synth.DetectorOutDim, f); scores[j] != s {
						t.Fatalf("%s frame %d: ScoreBatch %+v, staged %+v", label, j, scores[j], s)
					}
					if preds == nil {
						continue
					}
					ref := decodeLogits(nil, want[j], synth.DetectorOutDim)
					if len(preds[j]) != len(ref) {
						t.Fatalf("%s frame %d: %d predictions, staged %d", label, j, len(preds[j]), len(ref))
					}
					for c := range ref {
						if preds[j][c] != ref[c] {
							t.Fatalf("%s frame %d cell %d: DetectBatch %+v, staged %+v", label, j, c, preds[j][c], ref[c])
						}
					}
				}
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
// table's form) and without, and over one frame with its batch and
// destination on the stack. CI's allocations job re-measures it on every
// push.
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
	if allocs := testing.AllocsPerRun(100, func() { evaluateFrame(d, f) }); allocs != 0 {
		t.Fatalf("one-frame ScoreBatch: %v allocs/op, want 0", allocs)
	}
}

// TestScoreTableMatchesEvaluateFrame pins the (model × frame) table
// against one-frame scoring (evaluateFrame) for every cell, at one frame short of,
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
				if want := evaluateFrame(d, f); table[m][i] != want {
					t.Fatalf("%d frames: model %s frame %d: table %+v, one-frame score %+v", n, d.Name, i, table[m][i], want)
				}
				tp += table[m][i].TP
			}
		}
	}
	if tp == 0 {
		t.Fatal("no true positive in any table; the comparison covered no match")
	}
}
