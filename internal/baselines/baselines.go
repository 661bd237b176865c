// Package baselines implements the paper's four candidate methods
// (§VI-A3): SDM (one versatile deep model), SSM (one general compressed
// model), CDG (clustering-based domain generalization: feature-space
// clusters with per-cluster compressed models selected by nearest
// centroid), and DMM (one compressed model per source dataset, selected
// by the test sample's dataset). All satisfy the Selector interface the
// experiment harness evaluates uniformly alongside Anole.
package baselines

import (
	"fmt"

	"anole/internal/detect"
	"anole/internal/scene"
	"anole/internal/stats"
	"anole/internal/synth"
	"anole/internal/tensor"
	"anole/internal/xrand"
)

// Selector is a per-frame model-selection policy: the common surface of
// all candidate methods.
type Selector interface {
	// Name identifies the method ("SDM", "SSM", "CDG", "DMM").
	Name() string
	// Select returns the detector to run on frame f.
	Select(f *synth.Frame) *detect.Detector
	// Detectors lists every model the method may deploy (for memory
	// accounting).
	Detectors() []*detect.Detector
	// OverheadFLOPs is the per-frame selection cost beyond detection
	// itself (0 for the static methods).
	OverheadFLOPs() int64
}

// Score runs a selector over frames and returns each frame's counts:
// out[i] is what s.Select(frames[i]).ScoreBatch counts on frames[i]
// alone. Frames are grouped by the detector s selects for them, in
// first-seen order, and each group is scored with one ScoreBatch call;
// batched scores equal one-frame ones, so the grouping changes no count.
func Score(s Selector, frames []*synth.Frame) []stats.PRF1 {
	out := make([]stats.PRF1, len(frames))
	var dets []*detect.Detector
	groups := make(map[*detect.Detector][]int)
	for i, f := range frames {
		d := s.Select(f)
		if _, ok := groups[d]; !ok {
			dets = append(dets, d)
		}
		groups[d] = append(groups[d], i)
	}
	for _, d := range dets {
		idx := groups[d]
		group := make([]*synth.Frame, len(idx))
		for k, i := range idx {
			group[k] = frames[i]
		}
		for k, m := range d.ScoreBatch(nil, group, nil) {
			out[idx[k]] = m
		}
	}
	return out
}

// SDM is the Single Deep Model baseline: one YOLOv3-analogue trained on
// everything.
type SDM struct {
	det *detect.Detector
}

// TrainSDM fits the deep baseline on all training frames.
func TrainSDM(train, val []*synth.Frame, cfg detect.TrainConfig) (*SDM, error) {
	if len(train) == 0 {
		return nil, fmt.Errorf("baselines: SDM needs training frames")
	}
	rng := cfg.RNG
	if rng == nil {
		rng = xrand.New(0)
		cfg.RNG = rng
	}
	det := detect.NewDetector("SDM", detect.Deep, train[0].FeatDim(), rng)
	if err := det.Train(train, val, cfg); err != nil {
		return nil, fmt.Errorf("baselines: %w", err)
	}
	return &SDM{det: det}, nil
}

// Name implements Selector.
func (s *SDM) Name() string { return "SDM" }

// Select implements Selector.
func (s *SDM) Select(*synth.Frame) *detect.Detector { return s.det }

// Detectors implements Selector.
func (s *SDM) Detectors() []*detect.Detector { return []*detect.Detector{s.det} }

// OverheadFLOPs implements Selector.
func (s *SDM) OverheadFLOPs() int64 { return 0 }

// SSM is the Single Shallow Model baseline: one compressed model trained
// on everything.
type SSM struct {
	det *detect.Detector
}

// TrainSSM fits the compressed baseline on all training frames.
func TrainSSM(train, val []*synth.Frame, cfg detect.TrainConfig) (*SSM, error) {
	if len(train) == 0 {
		return nil, fmt.Errorf("baselines: SSM needs training frames")
	}
	rng := cfg.RNG
	if rng == nil {
		rng = xrand.New(0)
		cfg.RNG = rng
	}
	det := detect.NewDetector("SSM", detect.Compressed, train[0].FeatDim(), rng)
	if err := det.Train(train, val, cfg); err != nil {
		return nil, fmt.Errorf("baselines: %w", err)
	}
	return &SSM{det: det}, nil
}

// Name implements Selector.
func (s *SSM) Name() string { return "SSM" }

// Select implements Selector.
func (s *SSM) Select(*synth.Frame) *detect.Detector { return s.det }

// Detectors implements Selector.
func (s *SSM) Detectors() []*detect.Detector { return []*detect.Detector{s.det} }

// OverheadFLOPs implements Selector.
func (s *SSM) OverheadFLOPs() int64 { return 0 }

// CDG is Clustering-based Domain Generalization: k-means over raw frame
// features defines domains, each with a compressed model; online, the
// model of the nearest cluster centroid serves the frame.
type CDG struct {
	dets      []*detect.Detector
	centroids []tensor.Vector
}

// CDGConfig controls the CDG baseline.
type CDGConfig struct {
	// K is the number of feature-space domains (default 6).
	K int
	// Restarts is the k-means restart count (default 4).
	Restarts int
	// Train configures the per-domain detector training.
	Train detect.TrainConfig
	// RNG is required for determinism.
	RNG *xrand.RNG
}

// TrainCDG clusters training frames in raw feature space and fits one
// compressed model per cluster.
func TrainCDG(train, val []*synth.Frame, cfg CDGConfig) (*CDG, error) {
	if len(train) == 0 {
		return nil, fmt.Errorf("baselines: CDG needs training frames")
	}
	if cfg.K <= 0 {
		cfg.K = 6
	}
	if cfg.Restarts <= 0 {
		cfg.Restarts = 4
	}
	if cfg.RNG == nil {
		cfg.RNG = xrand.New(0)
	}
	feats := make([]tensor.Vector, len(train))
	for i, f := range train {
		feats[i] = synth.FrameFeature(f)
	}
	res, err := scene.KMeans(feats, cfg.K, cfg.Restarts, cfg.RNG.Split(1))
	if err != nil {
		return nil, fmt.Errorf("baselines: CDG clustering: %w", err)
	}
	k := len(res.Centroids)
	c := &CDG{centroids: res.Centroids, dets: make([]*detect.Detector, k)}
	featDim := train[0].FeatDim()
	for j := 0; j < k; j++ {
		var cluster []*synth.Frame
		for i, a := range res.Assign {
			if a == j {
				cluster = append(cluster, train[i])
			}
		}
		det := detect.NewDetector(fmt.Sprintf("CDG_%d", j+1), detect.Compressed, featDim, cfg.RNG.Split(uint64(j+2)))
		tc := cfg.Train
		tc.RNG = cfg.RNG.Split(uint64(j + 100))
		if len(cluster) == 0 {
			cluster = train // degenerate cluster: fall back to all data
		}
		if err := det.Train(cluster, nil, tc); err != nil {
			return nil, fmt.Errorf("baselines: CDG model %d: %w", j, err)
		}
		c.dets[j] = det
	}
	_ = val // CDG, as described in the paper, does not early-stop
	return c, nil
}

// Name implements Selector.
func (c *CDG) Name() string { return "CDG" }

// Select implements Selector.
func (c *CDG) Select(f *synth.Frame) *detect.Detector {
	idx := scene.NearestCentroid(c.centroids, synth.FrameFeature(f))
	return c.dets[idx]
}

// Detectors implements Selector.
func (c *CDG) Detectors() []*detect.Detector { return c.dets }

// OverheadFLOPs implements Selector: the nearest-centroid search (one
// subtract-square-add triple per centroid dimension).
func (c *CDG) OverheadFLOPs() int64 {
	if len(c.centroids) == 0 {
		return 0
	}
	return int64(3 * len(c.centroids) * len(c.centroids[0]))
}

// DMM is Dataset-based Multiple Models: one compressed model per source
// dataset, selected by the frame's dataset of origin (the paper gives DMM
// this oracle knowledge).
type DMM struct {
	byDataset map[synth.DatasetID]*detect.Detector
	order     []*detect.Detector
	fallback  *detect.Detector
}

// TrainDMM fits one compressed model per dataset present in train.
func TrainDMM(train, val []*synth.Frame, cfg detect.TrainConfig) (*DMM, error) {
	if len(train) == 0 {
		return nil, fmt.Errorf("baselines: DMM needs training frames")
	}
	rng := cfg.RNG
	if rng == nil {
		rng = xrand.New(0)
	}
	byDS := make(map[synth.DatasetID][]*synth.Frame)
	for _, f := range train {
		byDS[f.Dataset] = append(byDS[f.Dataset], f)
	}
	d := &DMM{byDataset: make(map[synth.DatasetID]*detect.Detector, len(byDS))}
	featDim := train[0].FeatDim()
	for ds := synth.DatasetID(0); int(ds) < synth.NumDatasets; ds++ {
		frames, ok := byDS[ds]
		if !ok {
			continue
		}
		det := detect.NewDetector("DMM_"+ds.String(), detect.Compressed, featDim, rng.Split(uint64(ds)))
		tc := cfg
		tc.RNG = rng.Split(uint64(ds) + 50)
		if err := det.Train(frames, nil, tc); err != nil {
			return nil, fmt.Errorf("baselines: DMM %v: %w", ds, err)
		}
		d.byDataset[ds] = det
		d.order = append(d.order, det)
		if d.fallback == nil {
			d.fallback = det
		}
	}
	_ = val
	return d, nil
}

// Name implements Selector.
func (d *DMM) Name() string { return "DMM" }

// Select implements Selector. Frames from datasets without a model fall
// back to the first trained model.
func (d *DMM) Select(f *synth.Frame) *detect.Detector {
	if det, ok := d.byDataset[f.Dataset]; ok {
		return det
	}
	return d.fallback
}

// Detectors implements Selector.
func (d *DMM) Detectors() []*detect.Detector { return d.order }

// OverheadFLOPs implements Selector.
func (d *DMM) OverheadFLOPs() int64 { return 0 }

// Compile-time interface checks.
var (
	_ Selector = (*SDM)(nil)
	_ Selector = (*SSM)(nil)
	_ Selector = (*CDG)(nil)
	_ Selector = (*DMM)(nil)
)
