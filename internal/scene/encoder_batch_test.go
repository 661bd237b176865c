package scene

import (
	"testing"

	"anole/internal/nn"
	"anole/internal/tensor"
	"anole/internal/xrand"
)

// randomEncoder builds an untrained encoder via FromParts — batch
// equivalence is a purely numerical property, so no training is needed.
func randomEncoder(t *testing.T, seed uint64, featDim int) *Encoder {
	t.Helper()
	rng := xrand.New(seed)
	net := nn.NewMLP(nn.MLPConfig{InDim: featDim, Hidden: []int{32, 16}, OutDim: 3}, rng)
	enc, err := FromParts(net.Freeze(), []int{0, 1, 2}, 16)
	if err != nil {
		t.Fatal(err)
	}
	return enc
}

// TestEmbedBatchMatchesSequential pins the batched embedding path
// bitwise against a per-sample reference, the thawed backbone's
// ForwardThrough (MulVec per layer): the batched kernel preserves each
// dot product's summation order, so no tolerance is needed.
func TestEmbedBatchMatchesSequential(t *testing.T) {
	const featDim = 18
	enc := randomEncoder(t, 41, featDim)
	net := enc.Weights.Thaw()
	rng := xrand.New(42)
	for _, batch := range []int{0, 1, 3, 17, 64} {
		feats := tensor.NewMatrix(batch, featDim)
		for i := range feats.Data {
			feats.Data[i] = rng.NormMS(0, 1)
		}
		got := enc.EmbedBatchInto(nil, feats, nil)
		if got.Rows != batch || got.Cols != enc.EmbedDim() {
			t.Fatalf("batch %d: output %dx%d, want %dx%d", batch, got.Rows, got.Cols, batch, enc.EmbedDim())
		}
		for r := 0; r < batch; r++ {
			want := net.ForwardThrough(enc.embedLayers, feats.Row(r))
			for j := range want {
				if got.At(r, j) != want[j] {
					t.Fatalf("batch %d row %d dim %d: batched %v, sequential %v",
						batch, r, j, got.At(r, j), want[j])
				}
			}
		}
	}
}

// TestEmbedBatchReusesDst pins dst reuse plus scratch sharing: a held
// BatchScratch and a correctly-shaped dst make the batched embedding
// step allocation-free in steady state.
func TestEmbedBatchReusesDst(t *testing.T) {
	const featDim = 18
	enc := randomEncoder(t, 43, featDim)
	rng := xrand.New(44)
	const batch = 24
	s := enc.Weights.AcquireBatchScratch()
	defer enc.Weights.ReleaseBatchScratch(s)
	feats := s.In(batch, featDim)
	for i := range feats.Data {
		feats.Data[i] = rng.NormMS(0, 1)
	}
	dst := tensor.NewMatrix(batch, enc.EmbedDim())
	got := enc.EmbedBatchInto(dst, feats, s)
	if got != dst {
		t.Fatal("EmbedBatchInto should reuse a correctly-shaped dst")
	}
	allocs := testing.AllocsPerRun(100, func() {
		enc.EmbedBatchInto(dst, feats, s)
	})
	if allocs != 0 {
		t.Fatalf("EmbedBatchInto with held scratch: %v allocs/op, want 0", allocs)
	}
}
