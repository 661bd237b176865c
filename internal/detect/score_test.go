package detect

import (
	"encoding/binary"
	"math"
	"testing"

	"anole/internal/nn"
	"anole/internal/synth"
	"anole/internal/xrand"
)

// predictedBySigmoid is the decision ScorePredictions takes: the decoded
// objectness probability above the threshold.
func predictedBySigmoid(x float64) bool { return sigmoid(x) > objectnessThreshold }

// TestObjLogitMinMatchesSigmoid pins the logit threshold to the sigmoid
// decision it replaces: objLogitMin is predicted and its predecessor is
// not, and x >= objLogitMin agrees with sigmoid(x) > 0.5 on every logit
// within 2^20 ulps of it, on a log-spaced sweep of both signs over the
// whole float64 range, and on ±0, subnormals, ±Inf and NaN.
func TestObjLogitMinMatchesSigmoid(t *testing.T) {
	if !predictedBySigmoid(objLogitMin) {
		t.Fatalf("objLogitMin %v: sigmoid %v not above %v", objLogitMin, sigmoid(objLogitMin), objectnessThreshold)
	}
	if below := math.Nextafter(objLogitMin, math.Inf(-1)); predictedBySigmoid(below) {
		t.Fatalf("predecessor %v of objLogitMin %v is already predicted", below, objLogitMin)
	}
	check := func(x float64) {
		t.Helper()
		if got, want := x >= objLogitMin, predictedBySigmoid(x); got != want {
			t.Fatalf("logit %v (bits %#x): threshold says %v, sigmoid %v says %v", x, math.Float64bits(x), got, sigmoid(x), want)
		}
	}
	const ulps = 1 << 20
	mid := math.Float64bits(objLogitMin)
	for b := mid - ulps; b <= mid+ulps; b++ {
		check(math.Float64frombits(b))
	}
	for e := -1075; e <= 1024; e++ {
		for _, m := range []float64{1, 1.0000001, 1.25, 1.5, 1.75, 1.9999999} {
			x := math.Ldexp(m, e)
			check(x)
			check(-x)
		}
	}
	for _, x := range []float64{
		0, math.Copysign(0, -1),
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
		math.Float64frombits(0x000fffffffffffff), -math.Float64frombits(0x000fffffffffffff),
		math.Inf(1), math.Inf(-1), math.NaN(),
	} {
		check(x)
	}
	if math.NaN() >= objLogitMin {
		t.Fatal("NaN logit predicted")
	}
}

// identityDetector is a one-layer head whose logits are the first
// DetectorOutDim features of each cell, so a frame's cell features set
// its logits directly.
func identityDetector(tb testing.TB, featDim int) *Detector {
	tb.Helper()
	dense := nn.NewDense(synth.CellInputDim(featDim), synth.DetectorOutDim, xrand.New(1))
	dense.W.Fill(0)
	for k := 0; k < synth.DetectorOutDim; k++ {
		dense.W.Set(k, k, 1)
	}
	d, err := FromWeights("identity", Arch{Name: "identity"}, featDim, nn.MustNetwork(dense).Freeze())
	if err != nil {
		tb.Fatal(err)
	}
	return d
}

// logitBytes encodes xs as the little-endian float64 words the fuzz
// target reads its logits from.
func logitBytes(xs ...float64) []byte {
	b := make([]byte, 8*len(xs))
	for i, x := range xs {
		binary.LittleEndian.PutUint64(b[8*i:], math.Float64bits(x))
	}
	return b
}

// FuzzScoreBatchMatchesScorePredictions checks the scoring tail against
// decoding plus ScorePredictions on arbitrary logits and object lists:
// raw's little-endian float64 words, repeated, are one frame's logits,
// and each two bytes of objs an object (cell as a signed byte, so
// negative, out-of-range and duplicate cells all occur; class mod
// NumClasses+1, so one class no head predicts). The same words then
// become the frame's cell features under a head that passes them
// through, and ScoreBatch must count what ScorePredictions counts on
// DetectBatch's predictions.
func FuzzScoreBatchMatchesScorePredictions(f *testing.F) {
	w, err := synth.NewWorld(synth.DefaultConfig(71))
	if err != nil {
		f.Fatal(err)
	}
	tmpl := w.GenerateFrame(synth.Scene{Weather: synth.Clear, Location: synth.Urban, Time: synth.Daytime}, 1, xrand.New(72))
	id := identityDetector(f, tmpl.FeatDim())
	below := math.Nextafter(objLogitMin, math.Inf(-1))
	f.Add(logitBytes(objLogitMin, 1, 2, 0.5, -1), []byte{0, 1, 5, 0, 10, 2})
	f.Add(logitBytes(below, 3, 1, 0, 0, objLogitMin, 0, 0, 0, 0), []byte{0, 0, 0, 1, 1, 0, 63, 3, 64, 0, 0xff, 1})
	f.Add(logitBytes(math.NaN(), 1, 0, 0, 0, math.Inf(1), math.NaN(), 1, 1, 1, math.Inf(-1), 0, 0, 0, 0), []byte{0, 0, 1, 0, 2, 4})
	f.Add(logitBytes(math.Copysign(0, -1), 0, 0, 0, 0, math.SmallestNonzeroFloat64, 0, 0, 0, 0), []byte{0, 0, 1, 0, 0x80, 0, 0x7f, 0})
	f.Add([]byte{}, []byte{})
	f.Fuzz(func(t *testing.T, raw, objs []byte) {
		fr := *tmpl
		fr.Objects = nil
		for k := 0; k+1 < len(objs); k += 2 {
			fr.Objects = append(fr.Objects, synth.Object{Cell: int(int8(objs[k])), Class: synth.Class(objs[k+1] % (synth.NumClasses + 1))})
		}
		outDim, cells := synth.DetectorOutDim, fr.NumCells()
		logits := make([]float64, cells*outDim)
		if words := len(raw) / 8; words > 0 {
			for i := range logits {
				k := i % words
				logits[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[8*k:]))
			}
		}
		want := ScorePredictions(decodeLogits(nil, logits, outDim), &fr)
		if got := scoreLogits(logits, outDim, &fr); got != want {
			t.Fatalf("scoreLogits %+v, ScorePredictions %+v", got, want)
		}

		fd := fr.FeatDim()
		fr.Cells = make([]float64, len(tmpl.Cells))
		for c := 0; c < cells; c++ {
			copy(fr.Cells[c*fd:], logits[c*outDim:(c+1)*outDim])
		}
		frames := []*synth.Frame{&fr}
		want = ScorePredictions(id.DetectBatch(nil, frames)[0], &fr)
		if got := id.ScoreBatch(nil, frames, nil)[0]; got != want {
			t.Fatalf("ScoreBatch %+v, ScorePredictions(DetectBatch) %+v", got, want)
		}
	})
}
