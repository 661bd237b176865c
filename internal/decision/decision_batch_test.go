package decision

import (
	"math"
	"testing"

	"anole/internal/nn"
	"anole/internal/scene"
	"anole/internal/tensor"
	"anole/internal/xrand"
)

// randomModel builds an untrained decision model via FromParts — batch
// equivalence is numerical, not semantic, so training would only slow
// the test down.
func randomModel(t *testing.T, seed uint64) *Model {
	t.Helper()
	rng := xrand.New(seed)
	const featDim, embedDim, n = 18, 16, 5
	encNet := nn.NewMLP(nn.MLPConfig{InDim: featDim, Hidden: []int{32, embedDim}, OutDim: 3}, rng)
	enc, err := scene.FromParts(encNet.Freeze(), []int{0, 1, 2}, embedDim)
	if err != nil {
		t.Fatal(err)
	}
	head := nn.NewMLP(nn.MLPConfig{InDim: embedDim, Hidden: []int{16}, OutDim: n}, rng)
	m, err := FromParts(enc, head.Freeze())
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestScoresBatchMatchesSequential pins the batched Model Selection
// Strategy bitwise against a per-sample reference: the thawed head's
// Forward (MulVec per layer) followed by the same softmax. Batched head
// inference preserves each dot product's summation order, so every
// probability must be identical.
func TestScoresBatchMatchesSequential(t *testing.T) {
	m := randomModel(t, 51)
	head := m.Head.Thaw()
	rng := xrand.New(52)
	for _, batch := range []int{0, 1, 2, 9, 40} {
		embs := tensor.NewMatrix(batch, m.Encoder.EmbedDim())
		for i := range embs.Data {
			embs.Data[i] = rng.NormMS(0, 1)
		}
		got := m.ScoresBatchInto(nil, embs, nil)
		if got.Rows != batch || got.Cols != m.N {
			t.Fatalf("batch %d: output %dx%d, want %dx%d", batch, got.Rows, got.Cols, batch, m.N)
		}
		for r := 0; r < batch; r++ {
			want := tensor.Softmax(nil, head.Forward(embs.Row(r)))
			sum := 0.0
			for j := range want {
				if got.At(r, j) != want[j] {
					t.Fatalf("batch %d row %d model %d: batched %v, sequential %v",
						batch, r, j, got.At(r, j), want[j])
				}
				sum += got.At(r, j)
			}
			if math.Abs(sum-1) > 1e-9 {
				t.Fatalf("row %d probabilities sum to %v", r, sum)
			}
		}
	}
}

// TestScoresBatchZeroAllocs pins the steady-state allocation contract of
// the batched selection step with held scratch and dst.
func TestScoresBatchZeroAllocs(t *testing.T) {
	m := randomModel(t, 53)
	rng := xrand.New(54)
	const batch = 32
	s := m.Head.AcquireBatchScratch()
	defer m.Head.ReleaseBatchScratch(s)
	embs := s.In(batch, m.Encoder.EmbedDim())
	for i := range embs.Data {
		embs.Data[i] = rng.NormMS(0, 1)
	}
	dst := s.Out(batch, m.N)
	m.ScoresBatchInto(dst, embs, s)
	allocs := testing.AllocsPerRun(100, func() {
		m.ScoresBatchInto(dst, embs, s)
	})
	if allocs != 0 {
		t.Fatalf("ScoresBatchInto with held scratch: %v allocs/op, want 0", allocs)
	}
}
