// Package core is the public face of the Anole reproduction: the offline
// Profiler (the paper's Offline Scene Profiling pipeline: TCM → ASS →
// TDM, Fig. 2 left) producing a deployable Bundle, and the online Runtime
// (Model Selection Strategy + Cache-based Model Deployment + Model
// Inference, Fig. 2 right) executing it frame by frame on a simulated
// mobile device.
package core

import (
	"fmt"
	"math"
	"sync/atomic"

	"anole/internal/decision"
	"anole/internal/detect"
	"anole/internal/device"
	"anole/internal/scene"
	"anole/internal/stats"
	"anole/internal/synth"
	"anole/internal/tensor"
)

// ModelInfo is the provenance of one repertoire model, preserved through
// bundle serialization.
type ModelInfo struct {
	Name        string
	Level       int
	Cluster     int
	TrainScenes []int
	ValF1       float64
}

// Bundle is everything a device downloads before going online: the scene
// encoder, the decision model head, the compressed model repertoire, and
// the novelty calibration used to flag out-of-distribution scenes.
type Bundle struct {
	Encoder   *scene.Encoder
	Decision  *decision.Model
	Detectors []*detect.Detector
	Infos     []ModelInfo
	// FeatDim is the per-cell feature dimension the detectors expect.
	FeatDim int

	// Centroids holds the mean scene embedding of each encoder class
	// (training-time scenes); NoveltyScale is the 95th percentile of
	// training frames' distances to their own centroid. Together they
	// calibrate Novelty: distances beyond the scale mark frames outside
	// every known scene (the paper's case 3). Optional: a bundle
	// without centroids reports novelty 0.
	Centroids    []tensor.Vector
	NoveltyScale float64

	// lanes holds the centroids packed for the novelty kernel, a
	// *centroidLanes built on first use (see packedCentroids).
	lanes atomic.Value
}

// centroidLanes is a bundle's scene centroids packed for the novelty
// kernel, with the slice they were packed from.
type centroidLanes struct {
	src    []tensor.Vector
	points *tensor.PackedPoints
}

// A Bundle is immutable once built: every model inside it is a frozen
// nn.Weights program, so a single Bundle serves any number of goroutines
// concurrently — streams share one resident copy of all detectors rather
// than cloning per goroutine.

// CalibrateNovelty computes the scene centroids and the in-scene
// 95th-percentile distance from the training frames, enabling the
// novelty score (NoveltyOfEmbedding).
// Frames whose scene is unknown to the encoder are skipped.
func (b *Bundle) CalibrateNovelty(train []*synth.Frame) {
	k := b.Encoder.NumClasses()
	if k == 0 || len(train) == 0 {
		return
	}
	centroids := make([]tensor.Vector, k)
	counts := make([]int, k)
	embeddings := make([]tensor.Vector, 0, len(train))
	classes := make([]int, 0, len(train))
	for _, f := range train {
		cls := b.Encoder.ClassOf(f.Scene.Index())
		if cls < 0 {
			continue
		}
		emb := b.Encoder.Embed(f)
		if centroids[cls] == nil {
			centroids[cls] = tensor.NewVector(len(emb))
		}
		centroids[cls].AddScaled(1, emb)
		counts[cls]++
		embeddings = append(embeddings, emb)
		classes = append(classes, cls)
	}
	var kept []tensor.Vector
	remap := make([]int, k)
	for cls := range centroids {
		remap[cls] = -1
		if counts[cls] == 0 {
			continue
		}
		centroids[cls].Scale(1 / float64(counts[cls]))
		remap[cls] = len(kept)
		kept = append(kept, centroids[cls])
	}
	if len(kept) == 0 {
		return
	}
	dists := make([]float64, 0, len(embeddings))
	for i, emb := range embeddings {
		ci := remap[classes[i]]
		if ci < 0 {
			continue
		}
		dists = append(dists, math.Sqrt(emb.SquaredDistance(kept[ci])))
	}
	scale := stats.Quantile(dists, 0.95)
	if scale <= 0 {
		scale = 1e-9
	}
	b.Centroids = kept
	b.NoveltyScale = scale
}

// NoveltyOfEmbedding scores how far a frame's scene embedding sits
// from every known scene: its distance to the nearest scene centroid
// divided by the calibrated in-scene 95th-percentile distance. Values
// ≤ 1 are ordinary; values well above 1 indicate a scene no repertoire
// model was trained for. Returns 0 when the bundle carries no
// calibration. This scalar scan — each centroid's squared distance cut
// short once it reaches the minimum so far — serves Runtime.ProcessFrame
// and is the reference the tick pipeline's kernel (noveltyOf) is pinned
// against.
func (b *Bundle) NoveltyOfEmbedding(emb tensor.Vector) float64 {
	if len(b.Centroids) == 0 || b.NoveltyScale <= 0 {
		return 0
	}
	min := math.Inf(1)
	for _, c := range b.Centroids {
		if d := emb.SquaredDistanceBelow(c, min); d < min {
			min = d
		}
	}
	return math.Sqrt(min) / b.NoveltyScale
}

// packedCentroids returns the scene centroids laid out for the
// novelty kernel (dimension-major, one kernel lane per centroid), or
// nil when the bundle carries no calibration. They are packed once per
// bundle, on first use, and repacked only if Centroids no longer is the
// slice they were packed from (a copied bundle given other centroids).
func (b *Bundle) packedCentroids() *tensor.PackedPoints {
	if len(b.Centroids) == 0 || b.NoveltyScale <= 0 {
		return nil
	}
	if c, ok := b.lanes.Load().(*centroidLanes); ok && len(c.src) == len(b.Centroids) && &c.src[0] == &b.Centroids[0] {
		return c.points
	}
	c := &centroidLanes{src: b.Centroids, points: tensor.PackPoints(b.Centroids)}
	b.lanes.Store(c)
	return c.points
}

// noveltyOf is NoveltyOfEmbedding, bit for bit, on the nearest-point
// kernel (tensor.PackedPoints: AVX-512, else AVX2, else portable Go,
// chosen once from CPUID) over the packed centroids. The kernel sums
// every centroid's full distance and keeps the smallest, which is the
// minimum the early-exit scan finds: a sum it cuts short never
// undercuts the minimum, and NaN never compares below it.
func (b *Bundle) noveltyOf(emb tensor.Vector) float64 {
	centroids := b.packedCentroids()
	if centroids == nil {
		return 0
	}
	return math.Sqrt(centroids.MinSquaredDistance(emb)) / b.NoveltyScale
}

// Validate checks the bundle's internal consistency.
func (b *Bundle) Validate() error {
	switch {
	case b == nil:
		return fmt.Errorf("core: nil bundle")
	case b.Encoder == nil:
		return fmt.Errorf("core: bundle missing encoder")
	case b.Decision == nil:
		return fmt.Errorf("core: bundle missing decision model")
	case len(b.Detectors) == 0:
		return fmt.Errorf("core: bundle has no compressed models")
	case b.Decision.N != len(b.Detectors):
		return fmt.Errorf("core: decision head ranks %d models, bundle has %d", b.Decision.N, len(b.Detectors))
	case len(b.Infos) != len(b.Detectors):
		return fmt.Errorf("core: %d infos for %d models", len(b.Infos), len(b.Detectors))
	}
	for i, d := range b.Detectors {
		if d == nil {
			return fmt.Errorf("core: nil detector %d", i)
		}
		if d.FeatDim() != b.FeatDim {
			return fmt.Errorf("core: detector %d feat dim %d, bundle %d", i, d.FeatDim(), b.FeatDim)
		}
	}
	return nil
}

// NumModels returns the repertoire size n.
func (b *Bundle) NumModels() int { return len(b.Detectors) }

// ModelCost returns the device-simulation cost of compressed model i for
// a frame with `cells` grid cells.
func (b *Bundle) ModelCost(i, cells int) device.ModelCost {
	d := b.Detectors[i]
	return device.ModelCost{
		Name:              d.Name,
		FLOPsPerInference: d.FrameFLOPs(cells),
		WeightBytes:       d.WeightBytes(),
		QuantBits:         d.Weights().QuantBits(),
	}
}

// DecisionCost returns the device-simulation cost of one decision-model
// evaluation (scene embedding + head, the Table IV "M_scene + M_decision"
// row).
func (b *Bundle) DecisionCost() device.ModelCost {
	return device.ModelCost{
		Name:              "M_scene+M_decision",
		FLOPsPerInference: b.Decision.FLOPs(),
		WeightBytes:       b.Decision.WeightBytes(),
	}
}
