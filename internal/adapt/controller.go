package adapt

import (
	"fmt"
	"math"

	"anole/internal/core"
	"anole/internal/decision"
	"anole/internal/detect"
	"anole/internal/sampling"
	"anole/internal/synth"
	"anole/internal/telemetry"
	"anole/internal/tensor"
)

// Publisher is the repository surface the controller publishes expanded
// bundles through; repo.Server satisfies it. Publish returns the new
// generation number.
type Publisher interface {
	Publish(b *core.Bundle, note string) (uint64, error)
}

// ControllerConfig parameterizes the cloud-side adaptation controller.
type ControllerConfig struct {
	// Seed roots retraining randomness; each retrain derives its own
	// stream from Seed and the cluster ordinal, so a controller replayed
	// over the same reports produces bit-identical bundles.
	Seed uint64
	// TrainFrames is the original training corpus, needed to rebuild the
	// decision head's balanced pools alongside the new scene's frames.
	TrainFrames []*synth.Frame
	// Train, Sampling, Decision configure core.ExpandRepertoire.
	Train    detect.TrainConfig
	Sampling sampling.Config
	Decision decision.Config
	// MinReports is how many clustered reports a signature needs before
	// it justifies a retrain (default 2 — one report can be a transient).
	MinReports int
	// MinFrames is the fewest pooled exemplar frames to train on
	// (default 30, matching ExpandRepertoire's floor).
	MinFrames int
	// RetrainHook, when non-nil, post-processes each retrained bundle
	// before publication. Tests use it to inject regressions; a real
	// deployment would hang distillation or quantization here. Returning
	// an error abandons the retrain (the cluster stays eligible).
	RetrainHook func(*core.Bundle) (*core.Bundle, error)
	// Metrics, when non-nil, receives anole_adapt_retrain* counters. Nil
	// keeps them in a private registry.
	Metrics *telemetry.Registry
	// Tracer, when non-nil, records one StageAdapt span per cloud-side
	// causal milestone — cluster, retrain, publish, rollback — tagged
	// with the triggering drift report's trace ID, so /debug/spans on
	// the cloud stitches into the device's frame and report spans.
	Tracer *telemetry.Tracer
}

// clusterRadius is the embedding-space distance within which two report
// centroids describe the same emerging scene, in units of the base
// bundle's calibrated NoveltyScale: roughly one in-scene 95th-percentile
// radius.
const clusterRadius = 1.0

func (c *ControllerConfig) fill() {
	if c.MinReports <= 0 {
		c.MinReports = 2
	}
	if c.MinFrames <= 0 {
		c.MinFrames = 30
	}
}

// cluster pools the evidence for one emerging-scene signature.
type cluster struct {
	centroid  tensor.Vector
	weight    int // reports merged into the centroid
	frames    []*synth.Frame
	retrained bool
	gen       uint64 // generation the retrain published as
	trace     string // trace of the report that triggered the retrain
}

// Controller is the cloud half of the adaptation loop: it clusters
// incoming drift reports by their embedding centroids (leader
// clustering — deterministic in arrival order), and once a cluster has
// MinReports reports and MinFrames frames, expands the base repertoire
// with a specialist for that signature and publishes the result as the
// next generation.
//
// A Controller is not safe for concurrent use; the HTTP wrapper in
// anole-server serializes Submit calls.
type Controller struct {
	cfg  ControllerConfig
	base *core.Bundle
	pub  Publisher

	clusters []*cluster

	mRetrains *telemetry.Counter
	mFailures *telemetry.Counter
}

// NewController builds a controller expanding base through pub.
func NewController(base *core.Bundle, pub Publisher, cfg ControllerConfig) (*Controller, error) {
	if base == nil {
		return nil, fmt.Errorf("adapt: nil base bundle")
	}
	if err := base.Validate(); err != nil {
		return nil, err
	}
	if pub == nil {
		return nil, fmt.Errorf("adapt: nil publisher")
	}
	if len(cfg.TrainFrames) == 0 {
		return nil, fmt.Errorf("adapt: controller needs training frames for pool rebuild")
	}
	cfg.fill()
	reg := cfg.Metrics
	if reg == nil {
		reg = telemetry.NewRegistry()
	}
	return &Controller{
		cfg: cfg, base: base, pub: pub,
		mRetrains: reg.Counter("anole_adapt_retrains_total",
			"Repertoire expansions published by the adaptation controller."),
		mFailures: reg.Counter("anole_adapt_retrain_failures_total",
			"Retrain attempts abandoned by error."),
	}, nil
}

// Submit absorbs one drift report. When the report completes a cluster's
// evidence, the controller retrains and publishes a new generation,
// returning (generation, true). Otherwise it returns (0, false); a nil
// error either way means the report was accepted.
func (c *Controller) Submit(rep *Report) (uint64, bool, error) {
	if rep == nil {
		return 0, false, fmt.Errorf("adapt: nil report")
	}
	if len(rep.Centroid) != c.base.Encoder.EmbedDim() {
		return 0, false, fmt.Errorf("adapt: report centroid dim %d, encoder %d",
			len(rep.Centroid), c.base.Encoder.EmbedDim())
	}
	cl := c.assign(rep.Centroid)
	cl.frames = append(cl.frames, rep.Exemplars...)
	c.span(rep.Stream, "cluster", rep.Trace)
	if cl.retrained || cl.weight < c.cfg.MinReports || len(cl.frames) < c.cfg.MinFrames {
		return 0, false, nil
	}
	gen, err := c.retrain(cl, rep.Stream, rep.Trace)
	if err != nil {
		c.mFailures.Inc()
		return 0, false, err
	}
	return gen, true, nil
}

// assign merges the centroid into the nearest cluster within
// clusterRadius, or opens a new one. The matched cluster's centroid
// shifts toward the report (running mean over merged reports).
func (c *Controller) assign(centroid tensor.Vector) *cluster {
	var best *cluster
	bestDist := math.Inf(1)
	for _, cl := range c.clusters {
		d := math.Sqrt(cl.centroid.SquaredDistance(centroid))
		if d < bestDist {
			best, bestDist = cl, d
		}
	}
	if best != nil && bestDist <= clusterRadius*c.base.NoveltyScale {
		best.weight++
		// new_mean = old + (x - old)/n
		alpha := 1 / float64(best.weight)
		for i := range best.centroid {
			best.centroid[i] += float64(alpha * (centroid[i] - best.centroid[i]))
		}
		return best
	}
	cl := &cluster{centroid: centroid.Clone(), weight: 1}
	c.clusters = append(c.clusters, cl)
	return cl
}

// tracedPublisher is the optional Publisher surface for threading the
// drift journey's trace ID into the published generation's lineage;
// repo.Server satisfies it.
type tracedPublisher interface {
	PublishTraced(b *core.Bundle, note, trace string) (uint64, error)
}

// span records one cloud-side control-plane event on the tracer.
func (c *Controller) span(stream int, event, trace string) {
	if c.cfg.Tracer == nil {
		return
	}
	c.cfg.Tracer.Record(telemetry.Span{
		Seq:    c.cfg.Tracer.NextSeq(),
		Stream: stream,
		Stage:  StageAdapt,
		Model:  -1,
		Event:  event,
		Trace:  trace,
	})
}

// retrain expands the base repertoire with a specialist for the cluster
// and publishes it, stamping the triggering report's trace on the
// lineage when the publisher supports it. The expansion seed mixes the
// controller seed with the cluster ordinal so successive emerging
// scenes train on independent but reproducible streams.
func (c *Controller) retrain(cl *cluster, stream int, trace string) (uint64, error) {
	ordinal := uint64(0)
	for i, other := range c.clusters {
		if other == cl {
			ordinal = uint64(i)
			break
		}
	}
	nb, err := core.ExpandRepertoire(c.base, cl.frames, c.cfg.TrainFrames, core.ExpandConfig{
		Seed:      c.cfg.Seed ^ (0x9e3779b97f4a7c15 * (ordinal + 1)),
		Train:     c.cfg.Train,
		Sampling:  c.cfg.Sampling,
		Decision:  c.cfg.Decision,
		MinFrames: c.cfg.MinFrames,
	})
	if err != nil {
		return 0, fmt.Errorf("adapt: expand repertoire: %w", err)
	}
	if c.cfg.RetrainHook != nil {
		if nb, err = c.cfg.RetrainHook(nb); err != nil {
			return 0, fmt.Errorf("adapt: retrain hook: %w", err)
		}
	}
	c.span(stream, "retrain", trace)
	note := fmt.Sprintf("adapt: specialist for drift cluster %d (%d reports, %d frames)",
		ordinal, cl.weight, len(cl.frames))
	var gen uint64
	if tp, ok := c.pub.(tracedPublisher); ok {
		gen, err = tp.PublishTraced(nb, note, trace)
	} else {
		gen, err = c.pub.Publish(nb, note)
	}
	if err != nil {
		return 0, fmt.Errorf("adapt: publish: %w", err)
	}
	cl.retrained = true
	cl.gen = gen
	cl.trace = trace
	c.mRetrains.Inc()
	c.span(stream, "publish", trace)
	return gen, nil
}

// ConfirmPromotion tells the controller the fleet now runs the given
// generation's bundle; subsequent expansions build on it.
func (c *Controller) ConfirmPromotion(gen uint64, b *core.Bundle) {
	if b != nil {
		c.base = b
	}
	_ = gen
}

// rollbacker is the optional repository surface for reverting a bad
// generation; repo.Server satisfies it.
type rollbacker interface {
	Rollback(to uint64, note string) error
	Generation() uint64
}

// tracedRollbacker extends rollbacker with trace-stamped lineage;
// repo.Server satisfies it.
type tracedRollbacker interface {
	RollbackTraced(to uint64, note, trace string) error
}

// NoteRollback tells the controller a canary of failedGen was rolled
// back. The cluster that produced it is reopened so fresh evidence can
// trigger a new (differently seeded) retrain, and if the publisher
// supports rollback and still serves the failed generation, the
// repository is reverted to restoredGen with the failed journey's
// trace on the lineage entry.
func (c *Controller) NoteRollback(failedGen, restoredGen uint64) error {
	var trace string
	for _, cl := range c.clusters {
		if cl.retrained && cl.gen == failedGen {
			trace = cl.trace
			cl.retrained = false
			cl.gen = 0
			cl.trace = ""
			cl.weight = 0 // demand fresh reports before retrying
			cl.frames = cl.frames[:0]
		}
	}
	c.span(-1, "rollback", trace)
	rb, ok := c.pub.(rollbacker)
	if !ok || rb.Generation() != failedGen {
		return nil
	}
	note := fmt.Sprintf("adapt: canary of generation %d failed", failedGen)
	if trb, ok := c.pub.(tracedRollbacker); ok {
		return trb.RollbackTraced(restoredGen, note, trace)
	}
	return rb.Rollback(restoredGen, note)
}
