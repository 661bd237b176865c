package nn

import (
	"testing"

	"anole/internal/tensor"
	"anole/internal/xrand"
)

// TestBatchScratchGrowsOnlyAsAsked pins the per-buffer sizing of a
// scratch on the shapes the serving tick runs. A detect pass stages only
// its frame's context row (the cells are read in place), so In stays at
// that row's size after a compressed and a deep head have run 64 cells
// each. A decide block that borrows the same scratch afterwards — 16 rows
// through the scene encoder's embedding layers, then the decision head —
// finds every buffer large enough and reallocates none.
func TestBatchScratchGrowsOnlyAsAsked(t *testing.T) {
	const fd, cells, blockRows, models = 8, 64, 16, 19
	rng := xrand.New(41)
	mlp := func(in int, hidden []int, out int) *Weights {
		return NewMLP(MLPConfig{InDim: in, Hidden: hidden, OutDim: out}, rng).Freeze()
	}
	compressed, deep := mlp(2*fd+2, []int{16}, 4), mlp(2*fd+2, []int{56, 48}, 4)
	encoder, head := mlp(2*fd+2, []int{32, 16}, 6), mlp(16, []int{16}, models)

	s := new(BatchScratch)
	x := tensor.NewMatrix(cells, fd)
	for i := range x.Data {
		x.Data[i] = rng.NormMS(0, 1)
	}
	for _, d := range []*Weights{compressed, deep} {
		ctx := s.In(1, fd+2).Row(0)
		for i := range ctx {
			ctx[i] = rng.NormMS(0, 1)
		}
		d.InferBatchSuffix(s.Out(cells, d.OutDim()), x, ctx, s)
	}
	if cap(s.inBuf) != fd+2 {
		t.Fatalf("detect-shaped passes grew In to %d values, want the %d-value context row", cap(s.inBuf), fd+2)
	}

	bufs := func() [4]*float64 {
		return [4]*float64{&s.pingBuf[0], &s.pongBuf[0], &s.inBuf[0], &s.outBuf[0]}
	}
	before := bufs()
	feats := tensor.NewMatrix(blockRows, 2*fd+2)
	for i := range feats.Data {
		feats.Data[i] = rng.NormMS(0, 1)
	}
	embs := encoder.InferBatchThrough(4, tensor.NewMatrix(blockRows, 16), feats, s)
	head.InferBatch(tensor.NewMatrix(blockRows, models), embs, s)
	if bufs() != before {
		t.Fatal("a decide-shaped pass after detect-shaped ones reallocated a scratch buffer")
	}
}
