package synth

import (
	"math"
	"testing"

	"anole/internal/tensor"
	"anole/internal/xrand"
)

// TestFrameFeatureIntoMatchesFrameFeature pins the Into form, and
// ChannelMeansInto against the descriptor's mean entries, against the
// allocating form, including on a dirty reused destination: the buffer
// must be fully re-derived from the frame, not accumulated on top of
// stale contents.
func TestFrameFeatureIntoMatchesFrameFeature(t *testing.T) {
	w, err := NewWorld(DefaultConfig(71))
	if err != nil {
		t.Fatal(err)
	}
	rng := xrand.New(72)
	s := Scene{Weather: Clear, Location: Urban, Time: Daytime}
	dst := tensor.NewVector(FrameFeatureDim(w.Config().FeatDim))
	means := tensor.NewVector(w.Config().FeatDim)
	for i := 0; i < 5; i++ {
		f := w.GenerateFrame(s, 1.2, rng)
		want := FrameFeature(f)
		dst.Fill(999) // poison: a correct Into must overwrite every element
		got := FrameFeatureInto(dst, f)
		if &got[0] != &dst[0] {
			t.Fatal("FrameFeatureInto should reuse a correctly-sized dst")
		}
		for j := range want {
			if got[j] != want[j] {
				t.Fatalf("frame %d elem %d: %v, want %v", i, j, got[j], want[j])
			}
		}
		means.Fill(999)
		if got := ChannelMeansInto(means, f); &got[0] != &means[0] {
			t.Fatal("ChannelMeansInto should reuse a correctly-sized dst")
		}
		for j := range means {
			if means[j] != want[j] {
				t.Fatalf("frame %d mean %d: %v, want %v", i, j, means[j], want[j])
			}
		}
	}
}

// TestFrameFeatureIntoZeroAllocs pins the steady-state runtime contract:
// with a held destination the descriptor computation is allocation-free.
func TestFrameFeatureIntoZeroAllocs(t *testing.T) {
	w, err := NewWorld(DefaultConfig(73))
	if err != nil {
		t.Fatal(err)
	}
	rng := xrand.New(74)
	f := w.GenerateFrame(Scene{Weather: Clear, Location: Urban, Time: Daytime}, 1, rng)
	dst := tensor.NewVector(FrameFeatureDim(w.Config().FeatDim))
	allocs := testing.AllocsPerRun(100, func() {
		FrameFeatureInto(dst, f)
	})
	if allocs != 0 {
		t.Fatalf("FrameFeatureInto with held dst: %v allocs/op, want 0", allocs)
	}
}

// TestFrameFeaturesIntoZeroAllocs pins the batched form the decide
// stage runs: a block of 16 frames into held rows allocates nothing.
func TestFrameFeaturesIntoZeroAllocs(t *testing.T) {
	w, err := NewWorld(DefaultConfig(73))
	if err != nil {
		t.Fatal(err)
	}
	rng := xrand.New(74)
	frames := make([]*Frame, 16)
	rows := make([]tensor.Vector, len(frames))
	for i := range frames {
		frames[i] = w.GenerateFrame(Scene{Weather: Clear, Location: Urban, Time: Daytime}, 1, rng)
		rows[i] = tensor.NewVector(FrameFeatureDim(w.Config().FeatDim))
	}
	allocs := testing.AllocsPerRun(100, func() {
		FrameFeaturesInto(rows, frames)
	})
	if allocs != 0 {
		t.Fatalf("FrameFeaturesInto with held rows: %v allocs/op, want 0", allocs)
	}
}

// referenceFrameFeature is the descriptor as a cell-major loop computes
// it: every channel's sum and squared deviation accumulate in the
// output, one cell at a time. FrameFeatureInto and ChannelMeansInto
// must give its bits.
func referenceFrameFeature(f *Frame) tensor.Vector {
	d, cells := f.FeatDim(), f.NumCells()
	out := tensor.NewVector(FrameFeatureDim(d))
	if cells == 0 {
		return out
	}
	mean, std := out[:d], out[d:2*d]
	for c := 0; c < cells; c++ {
		for j, x := range f.Cell(c) {
			mean[j] += x
		}
	}
	inv := 1 / float64(cells)
	for j := range mean {
		mean[j] *= inv
	}
	for c := 0; c < cells; c++ {
		for j, x := range f.Cell(c) {
			dxy := x - mean[j]
			std[j] += float64(dxy * dxy)
		}
	}
	for j := range std {
		std[j] = math.Sqrt(std[j] * inv)
	}
	out[2*d] = f.Brightness
	out[2*d+1] = f.Contrast
	return out
}

// TestFrameFeatureIntoMatchesReferenceLoops pins the grouped
// accumulation of FrameFeatureInto and ChannelMeansInto against the
// cell-major reference loops, bit for bit, on poisoned destinations:
// every frame of a corpus (feature dimension 8, two whole channel
// groups), and hand-built frames whose feature dimension leaves a tail
// after the last whole group (5 and 6), is shorter than one group (3)
// or has no cells.
func TestFrameFeatureIntoMatchesReferenceLoops(t *testing.T) {
	var frames []*Frame
	corpus := testWorld(t, 75).GenerateCorpus(DefaultProfiles(0.3))
	for _, split := range []Split{Train, Val, Test} {
		frames = append(frames, corpus.Frames(split)...)
	}
	rng := xrand.New(76)
	for _, d := range []int{5, 6, 3} {
		for _, cells := range []int{64, 7, 1} {
			f := &Frame{Cells: make([]float64, cells*d), Brightness: rng.Norm(), Contrast: rng.Norm(), featDim: d}
			for i := range f.Cells {
				f.Cells[i] = rng.Norm() * 3
			}
			frames = append(frames, f)
		}
	}
	frames = append(frames, &Frame{featDim: 6})
	if len(frames) < 100 {
		t.Fatalf("only %d frames to check", len(frames))
	}
	for i, f := range frames {
		want := referenceFrameFeature(f)
		d := f.FeatDim()
		feat := tensor.NewVector(FrameFeatureDim(d))
		feat.Fill(math.NaN())
		got := FrameFeatureInto(feat, f)
		means := tensor.NewVector(d)
		means.Fill(math.Inf(-1))
		gotMeans := ChannelMeansInto(means, f)
		if &got[0] != &feat[0] || &gotMeans[0] != &means[0] {
			t.Fatalf("frame %d (dim %d): a correctly-sized dst was not reused", i, d)
		}
		for j := range want {
			if math.Float64bits(got[j]) != math.Float64bits(want[j]) {
				t.Fatalf("frame %d (dim %d, %d cells) descriptor %d: %v, want %v", i, d, f.NumCells(), j, got[j], want[j])
			}
		}
		for j := range means {
			if math.Float64bits(means[j]) != math.Float64bits(want[j]) {
				t.Fatalf("frame %d (dim %d, %d cells) mean %d: %v, want %v", i, d, f.NumCells(), j, means[j], want[j])
			}
		}
	}
	// The batched form over every frame at once: long runs of corpus
	// frames (whole kernel groups and tails), then runs of one
	// hand-built shape each.
	rows := make([]tensor.Vector, len(frames))
	for i, f := range frames {
		rows[i] = tensor.NewVector(FrameFeatureDim(f.FeatDim()))
		rows[i].Fill(math.NaN())
	}
	for _, n := range []int{len(frames), 1, 3, 17} {
		for lo := 0; lo < len(frames); lo += n {
			hi := min(lo+n, len(frames))
			FrameFeaturesInto(rows[lo:hi], frames[lo:hi])
		}
		for i, f := range frames {
			want := referenceFrameFeature(f)
			for j := range want {
				if math.Float64bits(rows[i][j]) != math.Float64bits(want[j]) {
					t.Fatalf("FrameFeaturesInto in runs of %d, frame %d (dim %d, %d cells) descriptor %d: %v, want %v", n, i, f.FeatDim(), f.NumCells(), j, rows[i][j], want[j])
				}
			}
			rows[i].Fill(math.NaN())
		}
	}
}

// BenchmarkFrameFeatureInto computes one frame's descriptor into a held
// destination, as the tick's decide blocks do for every served frame.
func BenchmarkFrameFeatureInto(b *testing.B) {
	w, err := NewWorld(DefaultConfig(77))
	if err != nil {
		b.Fatal(err)
	}
	f := w.GenerateFrame(Scene{Weather: Clear, Location: Urban, Time: Daytime}, 1, xrand.New(78))
	dst := tensor.NewVector(FrameFeatureDim(w.Config().FeatDim))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst = FrameFeatureInto(dst, f)
	}
}
