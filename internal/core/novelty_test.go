package core

import (
	"math"
	"testing"

	"anole/internal/tensor"
	"anole/internal/xrand"
)

// TestNoveltyKernelMatchesScalarScan pins noveltyOf, the tick
// pipeline's novelty score on packed centroids, against
// NoveltyOfEmbedding's early-exit scan, bit for bit: 1–17, 48 and 49
// centroids of a 16-value embedding, embeddings near one centroid and
// far from all, duplicated centroids, and NaN, ±Inf and ±0 injected
// into centroids and embeddings. A bundle without centroids or scale
// packs nothing and scores 0.
func TestNoveltyKernelMatchesScalarScan(t *testing.T) {
	rng := xrand.New(34)
	counts := []int{48, 49}
	for n := 1; n <= 17; n++ {
		counts = append(counts, n)
	}
	const dim = 16
	specials := []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 0}
	for _, n := range counts {
		b := &Bundle{NoveltyScale: 0.5 + rng.Float64()}
		for j := 0; j < n; j++ {
			c := tensor.NewVector(dim)
			for e := range c {
				c[e] = rng.Norm()
			}
			if j > 0 && rng.Intn(5) == 0 {
				copy(c, b.Centroids[rng.Intn(j)])
			}
			if rng.Intn(6) == 0 {
				c[rng.Intn(dim)] = specials[rng.Intn(len(specials))]
			}
			b.Centroids = append(b.Centroids, c)
		}
		for trial := 0; trial < 40; trial++ {
			emb := tensor.NewVector(dim)
			near := b.Centroids[rng.Intn(n)]
			for e := range emb {
				emb[e] = rng.Norm() * 3
				if trial%2 == 0 {
					emb[e] = near[e] + 0.01*rng.Norm()
				}
			}
			if trial%5 == 0 {
				emb[rng.Intn(dim)] = specials[rng.Intn(len(specials))]
			}
			want, got := b.NoveltyOfEmbedding(emb), b.noveltyOf(emb)
			if math.Float64bits(got) != math.Float64bits(want) && !(math.IsNaN(got) && math.IsNaN(want)) {
				t.Fatalf("%d centroids, trial %d: kernel novelty %v, scalar scan %v", n, trial, got, want)
			}
		}
	}
	// Packed once per bundle; a bundle that carries another bundle's
	// packed lanes but other centroids packs its own.
	b := &Bundle{Centroids: []tensor.Vector{{1, 2}, {3, 4}}, NoveltyScale: 1}
	if b.packedCentroids() != b.packedCentroids() {
		t.Fatal("centroids packed twice")
	}
	other := &Bundle{Centroids: []tensor.Vector{{5, 6}}, NoveltyScale: 1}
	other.lanes.Store(b.lanes.Load())
	if got := other.noveltyOf(tensor.Vector{5, 6}); got != 0 {
		t.Fatalf("novelty against stale lanes: %v, want 0", got)
	}
	for _, b := range []*Bundle{{NoveltyScale: 1}, {Centroids: []tensor.Vector{{1, 2}}}} {
		if p := b.packedCentroids(); p != nil || b.noveltyOf(tensor.Vector{1, 2}) != 0 {
			t.Fatalf("uncalibrated bundle (%d centroids, scale %v): packed %v, want nothing and novelty 0", len(b.Centroids), b.NoveltyScale, p)
		}
	}
}
