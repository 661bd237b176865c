package nn_test

import (
	"bytes"
	"fmt"
	"math"
	"testing"

	"anole/internal/nn"
	"anole/internal/tensor"
	"anole/internal/xrand"
)

// batchFixture freezes a randomized MLP with fuzz-ish shape diversity:
// hidden widths and depth vary per seed so the batch path is exercised
// across narrow, wide, deep and shallow programs. Every parameter is
// random, biases included, so the kernel's bias add is exercised too.
func batchFixture(t testing.TB, seed uint64) (*nn.Weights, *xrand.RNG) {
	t.Helper()
	rng := xrand.New(seed)
	depth := 1 + rng.Intn(3)
	hidden := make([]int, depth)
	for i := range hidden {
		hidden[i] = 1 + rng.Intn(40)
	}
	in := 1 + rng.Intn(30)
	out := 1 + rng.Intn(12)
	net := nn.NewMLP(nn.MLPConfig{InDim: in, Hidden: hidden, OutDim: out}, rng)
	randomizeParams(net, rng)
	return net.Freeze(), rng
}

// randomizeParams draws every parameter from N(0, 1). NewMLP leaves
// biases at zero, which would let a kernel that mishandles the bias
// pass a batch-equivalence test.
func randomizeParams(net *nn.Network, rng *xrand.RNG) {
	for _, p := range net.Params() {
		for i := range p.Value {
			p.Value[i] = rng.NormMS(0, 1)
		}
	}
}

// TestInferBatchMatchesSequential is the batch-equivalence property
// test at the nn layer: for randomized program shapes and batch sizes
// (including 0 and 1), running B samples through InferBatch must agree
// bit for bit with B per-sample Forward calls on the thawed network
// (MulVec, then the bias) — the batched kernel keeps each dot product's
// summation order.
func TestInferBatchMatchesSequential(t *testing.T) {
	for seed := uint64(0); seed < 30; seed++ {
		w, rng := batchFixture(t, seed)
		net := w.Thaw()
		for _, batch := range []int{0, 1, 2, 3, 7, 32, 65} {
			in := tensor.NewMatrix(batch, w.InDim())
			for i := range in.Data {
				in.Data[i] = rng.NormMS(0, 1)
			}
			got := w.InferBatch(nil, in, nil)
			if got.Rows != batch || got.Cols != w.OutDim() {
				t.Fatalf("seed %d batch %d: output %dx%d, want %dx%d",
					seed, batch, got.Rows, got.Cols, batch, w.OutDim())
			}
			for r := 0; r < batch; r++ {
				sameRow(t, got.Row(r), net.Forward(in.Row(r)), fmt.Sprintf("seed %d batch %d row %d", seed, batch, r))
			}
		}
	}
}

// TestInferBatchThroughMatchesSequential covers the layer-prefix form
// used for batched embedding extraction: every prefix length, batched
// vs per-row ForwardThrough on the thawed network.
func TestInferBatchThroughMatchesSequential(t *testing.T) {
	w, rng := batchFixture(t, 99)
	net := w.Thaw()
	const batch = 9
	in := tensor.NewMatrix(batch, w.InDim())
	for i := range in.Data {
		in.Data[i] = rng.NormMS(0, 1)
	}
	for k := 0; k <= w.NumLayers(); k++ {
		got := w.InferBatchThrough(k, nil, in, nil)
		for r := 0; r < batch; r++ {
			sameRow(t, got.Row(r), net.ForwardThrough(k, in.Row(r)), fmt.Sprintf("k=%d row %d", k, r))
		}
	}
}

// TestInferBatchSuffixMatchesStaged pins the shared-suffix form against
// InferBatch on the staged rows [x_r | c], bit for bit: randomized
// programs with random biases, full-precision and quantized to 8 and 4
// bits, batches of 0, 1, 7 and 64 rows, and every split of the input
// between the rows and the suffix.
func TestInferBatchSuffixMatchesStaged(t *testing.T) {
	for seed := uint64(0); seed < 12; seed++ {
		full, rng := batchFixture(t, seed)
		q8, err := full.Quantize(8)
		if err != nil {
			t.Fatal(err)
		}
		q4, err := full.Quantize(4)
		if err != nil {
			t.Fatal(err)
		}
		in := full.InDim()
		for _, w := range []*nn.Weights{full, q8, q4} {
			for _, batch := range []int{0, 1, 7, 64} {
				staged := tensor.NewMatrix(batch, in)
				c := randVec(rng, in)
				for kc := 0; kc <= in; kc++ {
					x := tensor.NewMatrix(batch, in-kc)
					for r := 0; r < batch; r++ {
						copy(x.Row(r), randVec(rng, in-kc))
						copy(staged.Row(r), x.Row(r))
						copy(staged.Row(r)[in-kc:], c[:kc])
					}
					want := w.InferBatch(nil, staged, nil)
					got := w.InferBatchSuffix(nil, x, c[:kc], nil)
					for r := 0; r < batch; r++ {
						sameRow(t, got.Row(r), want.Row(r), fmt.Sprintf("seed %d batch %d suffix %d row %d", seed, batch, kc, r))
					}
				}
			}
		}
	}
	w, _ := batchFixture(t, 0)
	mustPanic(t, func() { w.InferBatchSuffix(nil, tensor.NewMatrix(2, w.InDim()), tensor.NewVector(1), nil) })
}

// mustPanic fails the test unless f panics.
func mustPanic(t *testing.T, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	f()
}

// TestInferBatchZeroAllocs pins the steady-state allocation contract of
// the batch path: a held BatchScratch plus scratch-owned staging/output
// matrices make InferBatch allocation-free, including the dense kernel
// underneath. CI's allocations job re-measures this pin on every push.
func TestInferBatchZeroAllocs(t *testing.T) {
	_, w, rng := freezeFixture(t, 6)
	const batch = 64
	s := w.AcquireBatchScratch()
	defer w.ReleaseBatchScratch(s)
	in := s.In(batch, w.InDim())
	for i := range in.Data {
		in.Data[i] = rng.NormMS(0, 1)
	}
	dst := s.Out(batch, w.OutDim())
	// Warm: grows scratch buffers to this batch shape, after which the
	// steady state must not allocate.
	w.InferBatch(dst, in, s)
	allocs := testing.AllocsPerRun(200, func() {
		w.InferBatch(dst, in, s)
	})
	if allocs != 0 {
		t.Fatalf("InferBatch with held scratch: %v allocs/op, want 0", allocs)
	}
}

// TestBatchScratchPoolReuse checks the nil-scratch convenience path
// borrows pooled batch scratches rather than growing without bound.
func TestBatchScratchPoolReuse(t *testing.T) {
	_, w, rng := freezeFixture(t, 8)
	const batch = 16
	in := tensor.NewMatrix(batch, w.InDim())
	for i := range in.Data {
		in.Data[i] = rng.NormMS(0, 1)
	}
	dst := tensor.NewMatrix(batch, w.OutDim())
	for i := 0; i < 8; i++ {
		w.InferBatch(dst, in, nil)
	}
	allocs := testing.AllocsPerRun(200, func() {
		w.InferBatch(dst, in, nil)
	})
	if allocs > 1 {
		t.Fatalf("pooled InferBatch: %v allocs/op, want ≤1", allocs)
	}
}

// TestBatchScratchStagingIsolation pins that the In and Out staging
// matrices survive an InferBatch on the same scratch — the runtime
// assembles inputs in In, runs the program, and reads Out without any
// intermediate layer clobbering either.
func TestBatchScratchStagingIsolation(t *testing.T) {
	_, w, rng := freezeFixture(t, 12)
	const batch = 5
	s := w.AcquireBatchScratch()
	defer w.ReleaseBatchScratch(s)
	in := s.In(batch, w.InDim())
	for i := range in.Data {
		in.Data[i] = rng.NormMS(0, 1)
	}
	snapshot := append([]float64(nil), in.Data...)
	dst := s.Out(batch, w.OutDim())
	w.InferBatch(dst, in, s)
	for i := range snapshot {
		if in.Data[i] != snapshot[i] {
			t.Fatal("InferBatch clobbered the input staging matrix")
		}
	}
	// The outputs must equal the per-row Forward results, proving dst
	// was not used as an intermediate buffer.
	net := w.Thaw()
	for r := 0; r < batch; r++ {
		want := net.Forward(in.Row(r))
		for j := range want {
			if math.Abs(dst.At(r, j)-want[j]) > 1e-12 {
				t.Fatalf("row %d out %d: %v, want %v", r, j, dst.At(r, j), want[j])
			}
		}
	}
}

// TestInferBatchQuantized runs the batch path over a quantized program:
// a quantized Weights is just another program, so the batch path and
// the thawed network's per-sample Forward must agree there too.
func TestInferBatchQuantized(t *testing.T) {
	_, w, rng := freezeFixture(t, 21)
	q, err := w.Quantize(8)
	if err != nil {
		t.Fatal(err)
	}
	const batch = 11
	in := tensor.NewMatrix(batch, q.InDim())
	for i := range in.Data {
		in.Data[i] = rng.NormMS(0, 1)
	}
	got := q.InferBatch(nil, in, nil)
	net := q.Thaw()
	for r := 0; r < batch; r++ {
		sameRow(t, got.Row(r), net.Forward(in.Row(r)), fmt.Sprintf("row %d", r))
	}
}

// sameRow checks a batched output row against the per-sample reference
// output for the same sample bit for bit, NaN matching NaN.
func sameRow(t *testing.T, got, want tensor.Vector, label string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: batched width %d, sequential %d", label, len(got), len(want))
	}
	for j, w := range want {
		g := got[j]
		if math.Float64bits(g) != math.Float64bits(w) && !(math.IsNaN(g) && math.IsNaN(w)) {
			t.Fatalf("%s out %d: batched %v, sequential %v", label, j, g, w)
		}
	}
}

// TestInferBatchBitIdenticalAcrossTransforms runs InferBatch against
// the thawed network's Forward on every way a program comes to exist
// besides Freeze: Quantize
// and ScaleFinalDense (which replace layers after copying the program,
// so their packed weights must be rebuilt) and a WriteTo/ReadWeights
// round trip of each. Inputs include NaN, ±Inf and −0.
func TestInferBatchBitIdenticalAcrossTransforms(t *testing.T) {
	_, w, rng := freezeFixture(t, 41)
	q8, err := w.Quantize(8)
	if err != nil {
		t.Fatal(err)
	}
	q4, err := w.Quantize(4)
	if err != nil {
		t.Fatal(err)
	}
	scaled, err := w.ScaleFinalDense(0.37)
	if err != nil {
		t.Fatal(err)
	}
	programs := map[string]*nn.Weights{"frozen": w, "quantize8": q8, "quantize4": q4, "scaled": scaled}
	for name, p := range map[string]*nn.Weights{"frozen": w, "quantize4": q4, "scaled": scaled} {
		var buf bytes.Buffer
		if _, err := p.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		back, err := nn.ReadWeights(&buf)
		if err != nil {
			t.Fatal(err)
		}
		programs[name+"+roundtrip"] = back
	}
	const batch = 13
	in := tensor.NewMatrix(batch, w.InDim())
	for i := range in.Data {
		in.Data[i] = rng.NormMS(0, 1)
	}
	in.Set(1, 0, math.NaN())
	in.Set(2, 3, math.Inf(1))
	in.Set(3, 5, math.Inf(-1))
	in.Set(4, 2, math.Copysign(0, -1))
	for name, p := range programs {
		got := p.InferBatch(nil, in, nil)
		net := p.Thaw()
		for r := 0; r < batch; r++ {
			sameRow(t, got.Row(r), net.Forward(in.Row(r)), fmt.Sprintf("%s row %d", name, r))
		}
	}
	// The transforms must actually change the outputs, or the packing
	// check above proves nothing.
	base := w.InferBatch(nil, in, nil)
	for _, name := range []string{"quantize4", "scaled"} {
		if got := programs[name].InferBatch(nil, in, nil); got.At(0, 0) == base.At(0, 0) {
			t.Fatalf("%s: output equals the untransformed program's", name)
		}
	}
}

// BenchmarkBatchStep is the CI allocations-job smoke for the batch
// path: one batched forward pass per op with a held scratch, -benchmem
// showing the steady state at 0 B/op. The sequential baseline is the
// same work as B independent Infer calls (one-row batches), for the
// speedup headline.
func BenchmarkBatchStep(b *testing.B) {
	_, w, rng := freezeFixture(b, 30)
	for _, batch := range []int{16, 64, 256} {
		in := tensor.NewMatrix(batch, w.InDim())
		for i := range in.Data {
			in.Data[i] = rng.NormMS(0, 1)
		}
		b.Run(fmt.Sprintf("batched/batch=%d", batch), func(b *testing.B) {
			s := w.AcquireBatchScratch()
			defer w.ReleaseBatchScratch(s)
			dst := s.Out(batch, w.OutDim())
			staged := s.In(batch, w.InDim())
			copy(staged.Data, in.Data)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				w.InferBatch(dst, staged, s)
			}
		})
		b.Run(fmt.Sprintf("sequential/batch=%d", batch), func(b *testing.B) {
			s := w.AcquireBatchScratch()
			defer w.ReleaseBatchScratch(s)
			dst := tensor.NewVector(w.OutDim())
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for r := 0; r < batch; r++ {
					w.Infer(dst, in.Row(r), s)
				}
			}
		})
	}
}
