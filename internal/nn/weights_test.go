package nn_test

import (
	"bytes"
	"math"
	"testing"

	"anole/internal/nn"
	"anole/internal/tensor"
	"anole/internal/xrand"
)

func freezeFixture(t testing.TB, seed uint64) (*nn.Network, *nn.Weights, *xrand.RNG) {
	t.Helper()
	rng := xrand.New(seed)
	net := nn.NewMLP(nn.MLPConfig{InDim: 12, Hidden: []int{24, 16}, OutDim: 7}, rng)
	randomizeParams(net, rng)
	return net, net.Freeze(), rng
}

func randVec(rng *xrand.RNG, n int) tensor.Vector {
	v := tensor.NewVector(n)
	for i := range v {
		v[i] = rng.NormMS(0, 1)
	}
	return v
}

// TestFreezeInferMatchesForward pins that the frozen program computes
// bit-for-bit the same function as the trainable network it came from,
// including the embedding prefix.
func TestFreezeInferMatchesForward(t *testing.T) {
	net, w, rng := freezeFixture(t, 1)
	if w.InDim() != net.InDim() || w.OutDim() != net.OutDim() || w.NumLayers() != net.NumLayers() {
		t.Fatalf("frozen dims (%d,%d,%d) != network (%d,%d,%d)",
			w.InDim(), w.OutDim(), w.NumLayers(), net.InDim(), net.OutDim(), net.NumLayers())
	}
	if w.FLOPs() != net.FLOPs() || w.ParamCount() != net.ParamCount() || w.WeightBytes() != net.WeightBytes() {
		t.Fatal("frozen accounting disagrees with network accounting")
	}
	for trial := 0; trial < 25; trial++ {
		x := randVec(rng, w.InDim())
		want := net.Forward(x).Clone()
		got := w.Infer(nil, x, nil)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("trial %d: Infer[%d] = %v, Forward = %v", trial, i, got[i], want[i])
			}
		}
		for k := 0; k <= w.NumLayers(); k++ {
			wantK := net.ForwardThrough(k, x).Clone()
			gotK := w.InferThrough(k, nil, x, nil)
			if len(gotK) != len(wantK) {
				t.Fatalf("InferThrough(%d) len %d, want %d", k, len(gotK), len(wantK))
			}
			for i := range wantK {
				if gotK[i] != wantK[i] {
					t.Fatalf("InferThrough(%d)[%d] = %v, want %v", k, i, gotK[i], wantK[i])
				}
			}
		}
	}
}

// TestInterleavedInfersDoNotCorrupt is the regression test for the old
// Network.Forward aliasing footgun: the returned vector used to alias
// layer state, so a second forward silently rewrote the first result
// (scene/encoder.go compensated with defensive clones). Frozen outputs
// are caller-owned by construction.
func TestInterleavedInfersDoNotCorrupt(t *testing.T) {
	net, w, rng := freezeFixture(t, 2)
	x1 := randVec(rng, w.InDim())
	x2 := randVec(rng, w.InDim())
	want1 := net.Forward(x1).Clone()
	want2 := net.Forward(x2).Clone()

	got1 := w.Infer(nil, x1, nil)
	got2 := w.Infer(nil, x2, nil) // must not touch got1
	got1Again := w.Infer(nil, x1, nil)
	for i := range want1 {
		if got1[i] != want1[i] {
			t.Fatalf("first result corrupted by second inference at [%d]: %v vs %v", i, got1[i], want1[i])
		}
		if got1Again[i] != got1[i] {
			t.Fatalf("re-run differs at [%d]", i)
		}
	}
	for i := range want2 {
		if got2[i] != want2[i] {
			t.Fatalf("second result wrong at [%d]: %v vs %v", i, got2[i], want2[i])
		}
	}
	// Same program, one shared scratch, alternating calls with reused
	// destination buffers: each dst is written exactly once per call and
	// never aliased by the other.
	s := w.AcquireBatchScratch()
	defer w.ReleaseBatchScratch(s)
	d1 := tensor.NewVector(w.OutDim())
	d2 := tensor.NewVector(w.OutDim())
	for trial := 0; trial < 10; trial++ {
		w.Infer(d1, x1, s)
		w.Infer(d2, x2, s)
		for i := range want1 {
			if d1[i] != want1[i] || d2[i] != want2[i] {
				t.Fatalf("trial %d: interleaved scratch runs corrupted outputs", trial)
			}
		}
	}
}

// TestWeightsInferZeroAllocs pins the acceptance criterion that the nn
// forward path performs zero heap allocations in steady state: a held
// scratch plus caller-owned dst/in buffers make Infer allocation-free,
// so the one-row matrix headers over them stay on the stack. The
// embedding prefix (InferThrough) holds to the same pin.
func TestWeightsInferZeroAllocs(t *testing.T) {
	_, w, rng := freezeFixture(t, 3)
	s := w.AcquireBatchScratch()
	defer w.ReleaseBatchScratch(s)
	in := randVec(rng, w.InDim())
	dst := tensor.NewVector(w.OutDim())

	allocs := testing.AllocsPerRun(200, func() {
		w.Infer(dst, in, s)
	})
	if allocs != 0 {
		t.Fatalf("Weights.Infer with held scratch: %v allocs/op, want 0", allocs)
	}
	k := w.NumLayers() - 1
	emb := w.InferThrough(k, nil, in, s)
	allocs = testing.AllocsPerRun(200, func() {
		w.InferThrough(k, emb, in, s)
	})
	if allocs != 0 {
		t.Fatalf("Weights.InferThrough with held scratch: %v allocs/op, want 0", allocs)
	}
}

// TestScratchPoolReuse checks the nil-scratch convenience path of Infer
// borrows and returns the shared pool's batch scratches rather than
// growing without bound.
func TestScratchPoolReuse(t *testing.T) {
	_, w, rng := freezeFixture(t, 4)
	x := randVec(rng, w.InDim())
	dst := tensor.NewVector(w.OutDim())
	// Warm the pool, then verify the steady state stays cheap: the only
	// possible allocation is a GC-cleared pool refilling itself.
	for i := 0; i < 8; i++ {
		w.Infer(dst, x, nil)
	}
	allocs := testing.AllocsPerRun(200, func() {
		w.Infer(dst, x, nil)
	})
	if allocs > 1 {
		t.Fatalf("pooled Infer: %v allocs/op, want ≤1", allocs)
	}
}

// TestWriteToLengthMatchesSizeBytes pins the analytic size against the
// actual encoder for both full-precision and quantized programs, so the
// cache's byte accounting can trust SizeBytes.
func TestWriteToLengthMatchesSizeBytes(t *testing.T) {
	_, w, _ := freezeFixture(t, 5)
	for _, bits := range []int{0, 4, 8, 12, 16} {
		p := w
		if bits > 0 {
			var err error
			p, err = w.Quantize(bits)
			if err != nil {
				t.Fatal(err)
			}
		}
		var buf bytes.Buffer
		n, err := p.WriteTo(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if n != int64(buf.Len()) {
			t.Fatalf("bits=%d: WriteTo reported %d, wrote %d", bits, n, buf.Len())
		}
		if n != p.SizeBytes() {
			t.Fatalf("bits=%d: WriteTo wrote %d bytes, SizeBytes says %d", bits, n, p.SizeBytes())
		}
	}
}

// TestWeightsSerializeRoundTrip pins freeze → serialize → load → Infer
// exactness, and that the loaded program freezes training state out
// entirely (ReadWeights then Thaw re-trains fine).
func TestWeightsSerializeRoundTrip(t *testing.T) {
	_, w, rng := freezeFixture(t, 6)
	var buf bytes.Buffer
	if _, err := w.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	rw, err := nn.ReadWeights(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 10; trial++ {
		x := randVec(rng, w.InDim())
		a := w.Infer(nil, x, nil)
		b := rw.Infer(nil, x, nil)
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("round-trip output differs at [%d]: %v vs %v", i, a[i], b[i])
			}
		}
	}
}

// TestQuantizeRoundTripBitForBit is the satellite pin: freeze → quantize
// → serialize → load → Infer must match the pre-refactor quantization
// path (nn.Quantize on the trainable network, then Forward) bit for bit
// on a fixed seed.
func TestQuantizeRoundTripBitForBit(t *testing.T) {
	for _, bits := range []int{4, 8, 16} {
		net, w, rng := freezeFixture(t, 7)
		legacy, err := nn.Quantize(net, bits)
		if err != nil {
			t.Fatal(err)
		}
		qw, err := w.Quantize(bits)
		if err != nil {
			t.Fatal(err)
		}
		if qw.QuantBits() != bits || legacy.QuantBits() != bits {
			t.Fatalf("bits=%d: QuantBits %d / %d", bits, qw.QuantBits(), legacy.QuantBits())
		}
		if qw.WeightBytes() != legacy.WeightBytes() {
			t.Fatalf("bits=%d: WeightBytes %d vs legacy %d", bits, qw.WeightBytes(), legacy.WeightBytes())
		}
		var buf bytes.Buffer
		if _, err := qw.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		loaded, err := nn.ReadWeights(&buf)
		if err != nil {
			t.Fatal(err)
		}
		for trial := 0; trial < 20; trial++ {
			x := randVec(rng, w.InDim())
			want := legacy.Forward(x).Clone()
			got := loaded.Infer(nil, x, nil)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("bits=%d trial %d: loaded quantized Infer[%d] = %v, legacy Forward = %v",
						bits, trial, i, got[i], want[i])
				}
			}
		}
	}
}

// TestThawTrainRefreeze exercises the full Trainable lifecycle: thaw a
// frozen program, train it, and freeze again — the original stays intact.
func TestThawTrainRefreeze(t *testing.T) {
	_, w, rng := freezeFixture(t, 8)
	x := randVec(rng, w.InDim())
	before := w.Infer(nil, x, nil).Clone()

	tr := nn.ThawTrainable(w)
	var samples []nn.Sample
	for i := 0; i < 64; i++ {
		sx := randVec(rng, w.InDim())
		sy := tensor.NewVector(w.OutDim())
		sy[i%w.OutDim()] = 1
		samples = append(samples, nn.Sample{X: sx, Y: sy})
	}
	if _, err := tr.Train(samples, nil, nn.TrainConfig{Epochs: 3, RNG: xrand.New(9)}); err != nil {
		t.Fatal(err)
	}
	w2 := tr.Freeze()

	after := w.Infer(nil, x, nil)
	for i := range before {
		if after[i] != before[i] {
			t.Fatalf("training the thawed copy mutated the frozen original at [%d]", i)
		}
	}
	trained := w2.Infer(nil, x, nil)
	moved := false
	for i := range trained {
		if trained[i] != before[i] {
			moved = true
			break
		}
	}
	if !moved {
		t.Fatal("training left the refrozen weights identical; optimizer did not run")
	}
}

// TestScaleFinalDense pins the copy-on-write temperature fold: logits
// scale by alpha, the source program is untouched, and quantized
// programs are refused (scaling would leave the integer grid).
func TestScaleFinalDense(t *testing.T) {
	_, w, rng := freezeFixture(t, 10)
	const alpha = 0.37
	scaled, err := w.ScaleFinalDense(alpha)
	if err != nil {
		t.Fatal(err)
	}
	x := randVec(rng, w.InDim())
	base := w.Infer(nil, x, nil)
	got := scaled.Infer(nil, x, nil)
	for i := range base {
		want := base[i] * alpha
		if math.Abs(got[i]-want) > 1e-12*math.Max(1, math.Abs(want)) {
			t.Fatalf("scaled logit [%d] = %v, want %v", i, got[i], want)
		}
	}
	qw, err := w.Quantize(8)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := qw.ScaleFinalDense(alpha); err == nil {
		t.Fatal("scaling a quantized program must be refused")
	}
}
