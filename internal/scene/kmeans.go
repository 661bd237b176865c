// Package scene implements the paper's offline scene-profiling core: the
// scene-representation encoder M_scene (§IV-A, a classifier over semantic
// scenes whose last hidden layer is the scene embedding), k-means
// clustering over scene embeddings, and Algorithm 1 — multi-level
// clustering that trains one compressed detector per model-friendly scene
// until a repertoire of n models passes the validation threshold δ.
package scene

import (
	"fmt"
	"math"

	"anole/internal/tensor"
	"anole/internal/xrand"
)

// KMeansResult is the outcome of one clustering: centroids, the
// assignment of each input point, and the total within-cluster squared
// distance.
type KMeansResult struct {
	Centroids []tensor.Vector
	Assign    []int
	Inertia   float64
}

// KMeans clusters points into k groups with Lloyd's algorithm seeded by
// k-means++, taking the best of restarts runs. It is deterministic given
// rng. k is clamped to len(points).
func KMeans(points []tensor.Vector, k, restarts int, rng *xrand.RNG) (KMeansResult, error) {
	if len(points) == 0 {
		return KMeansResult{}, fmt.Errorf("scene: kmeans on empty point set")
	}
	if k <= 0 {
		return KMeansResult{}, fmt.Errorf("scene: kmeans with k=%d", k)
	}
	if k > len(points) {
		k = len(points)
	}
	if restarts <= 0 {
		restarts = 1
	}
	best := KMeansResult{Inertia: math.Inf(1)}
	for r := 0; r < restarts; r++ {
		res := kmeansOnce(points, k, rng)
		if res.Inertia < best.Inertia {
			best = res
		}
	}
	return best, nil
}

func kmeansOnce(points []tensor.Vector, k int, rng *xrand.RNG) KMeansResult {
	centroids := seedPlusPlus(points, k, rng)
	assign := make([]int, len(points))
	counts := make([]int, k)

	const maxIters = 100
	for iter := 0; iter < maxIters; iter++ {
		changed := false
		for i, p := range points {
			bestC, bestD := 0, math.Inf(1)
			for c, cent := range centroids {
				if d := p.SquaredDistanceBelow(cent, bestD); d < bestD {
					bestC, bestD = c, d
				}
			}
			if assign[i] != bestC {
				assign[i] = bestC
				changed = true
			}
		}
		if !changed && iter > 0 {
			break
		}
		// Each centroid is a private clone (seedPlusPlus or the
		// empty-cluster re-seed below), so it is summed in place.
		for c := range centroids {
			clear(centroids[c])
			counts[c] = 0
		}
		for i, p := range points {
			centroids[assign[i]].AddScaled(1, p)
			counts[assign[i]]++
		}
		for c := range centroids {
			if counts[c] == 0 {
				// Re-seed an empty cluster on the farthest point
				// from its centroid's nearest neighbor; simplest
				// deterministic fix: steal a random point.
				centroids[c] = points[rng.Intn(len(points))].Clone()
				continue
			}
			centroids[c].Scale(1 / float64(counts[c]))
		}
	}

	var inertia float64
	for i, p := range points {
		inertia += p.SquaredDistance(centroids[assign[i]])
	}
	return KMeansResult{Centroids: centroids, Assign: assign, Inertia: inertia}
}

// seedPlusPlus picks k initial centroids with the k-means++ D² weighting.
func seedPlusPlus(points []tensor.Vector, k int, rng *xrand.RNG) []tensor.Vector {
	centroids := make([]tensor.Vector, 0, k)
	centroids = append(centroids, points[rng.Intn(len(points))].Clone())
	dist := make([]float64, len(points))
	for len(centroids) < k {
		var total float64
		for i, p := range points {
			d := math.Inf(1)
			for _, c := range centroids {
				if v := p.SquaredDistanceBelow(c, d); v < d {
					d = v
				}
			}
			dist[i] = d
			total += d
		}
		if total == 0 {
			// All remaining points coincide with centroids.
			centroids = append(centroids, points[rng.Intn(len(points))].Clone())
			continue
		}
		centroids = append(centroids, points[rng.Categorical(dist)].Clone())
	}
	return centroids
}

// NearestCentroid returns the index of the centroid closest to p (used by
// the CDG baseline for online model selection).
func NearestCentroid(centroids []tensor.Vector, p tensor.Vector) int {
	best, bestD := -1, math.Inf(1)
	for i, c := range centroids {
		if d := p.SquaredDistanceBelow(c, bestD); d < bestD {
			best, bestD = i, d
		}
	}
	return best
}
