package synth

import (
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
