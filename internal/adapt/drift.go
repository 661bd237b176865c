// Package adapt closes the continual-adaptation loop the paper leaves
// open (§II-B case 3): a frozen repertoire cannot serve a scene it has
// never seen. The loop is device → cloud → device:
//
//   - DriftDetector watches the frame pipeline's decision signals
//     (score entropy, novelty, detector disagreement on sampled frames)
//     in fixed windows and emits compact drift Reports with exemplar
//     frames when a window trips;
//   - Uplink charges each report's bytes to a simulated control-plane
//     link (reports are lost, not corrupted, when the link is down);
//   - Controller clusters reports into an emerging-scene signature and,
//     once a cluster has enough evidence, retrains a new compressed
//     specialist (core.ExpandRepertoire — seeded, deterministic) and
//     publishes the expanded bundle as the next repository generation;
//   - Rollout canaries the new generation on one stream, compares its
//     telemetry against the incumbent fleet, and promotes fleet-wide or
//     rolls back; Loop orchestrates all of it deterministically between
//     processing chunks.
//
// Everything is observable under the anole_adapt_* telemetry scheme.
package adapt

import (
	"fmt"
	"time"

	"anole/internal/core"
	"anole/internal/detect"
	"anole/internal/prefetch"
	"anole/internal/pressure"
	"anole/internal/synth"
	"anole/internal/telemetry"
	"anole/internal/tensor"
)

// DriftConfig parameterizes a DriftDetector.
type DriftConfig struct {
	// Window is the evaluation window in frames (default 30): signals
	// are averaged over each window and thresholds apply to the means.
	Window int
	// EntropyThreshold is the mean normalized decision-score entropy
	// above which a window counts as uncertain (default 0.97). The
	// decision head's scores are high-entropy even in distribution
	// (≈0.95 on calibrated traffic), but only saturate toward 1.0 well
	// off the training manifold, so the threshold sits just above the
	// healthy band.
	EntropyThreshold float64
	// NoveltyThreshold is the mean novelty above which a window counts
	// as off-distribution (default 1.5; 1.0 is the calibrated in-scene
	// 95th percentile).
	NoveltyThreshold float64
	// DisagreementThreshold is the sampled detector-disagreement rate
	// above which a window counts as contested (default 0.75; healthy
	// specialists overlap imperfectly, so moderate disagreement is
	// normal — only near-disjoint detections indicate drift).
	DisagreementThreshold float64
	// SampleEvery probes detector disagreement on every k-th frame
	// (default 4): the serving model and the decision head's runner-up
	// both detect the frame, and the disagreement is one minus the
	// Jaccard overlap of their positive cells. Sampling bounds the probe
	// cost; ≤0 disables the probe (its signal never trips).
	SampleEvery int
	// MinSignals is how many of the three signals (entropy, novelty,
	// disagreement) must trip for a window to emit a report (default 2:
	// any single signal can misfire on unlucky traffic, so a report
	// needs corroboration).
	MinSignals int
	// MinExemplars is the fewest flagged frames a report must carry to
	// be worth sending (default 16) — a report below it is held until a
	// later window accumulates more evidence.
	MinExemplars int
	// MaxExemplars caps the frames carried per report (default 48); the
	// uplink pays per byte, and the controller pools evidence across
	// reports anyway.
	MaxExemplars int
	// Cooldown is how many frames after an emitted report further
	// emission is suppressed (default 2×Window): one drifting scene
	// should produce a trickle of reports, not one per window.
	Cooldown int
}

func (c *DriftConfig) fill() {
	if c.Window <= 0 {
		c.Window = 30
	}
	if c.EntropyThreshold <= 0 {
		c.EntropyThreshold = 0.97
	}
	if c.NoveltyThreshold <= 0 {
		c.NoveltyThreshold = 1.5
	}
	if c.DisagreementThreshold <= 0 {
		c.DisagreementThreshold = 0.75
	}
	if c.SampleEvery == 0 {
		c.SampleEvery = 4
	}
	if c.MinSignals <= 0 {
		c.MinSignals = 2
	}
	if c.MinExemplars <= 0 {
		c.MinExemplars = 16
	}
	if c.MaxExemplars <= 0 {
		c.MaxExemplars = 48
	}
	if c.MaxExemplars < c.MinExemplars {
		c.MaxExemplars = c.MinExemplars
	}
	if c.Cooldown <= 0 {
		c.Cooldown = 2 * c.Window
	}
}

// Report is one compact drift observation shipped to the controller: the
// window statistics that tripped, a centroid signature of where the
// drifting frames sit in embedding space, and a bounded set of exemplar
// frames for cloud-side retraining.
type Report struct {
	// Stream is the emitting stream; Seq is how many frames that
	// stream's detector had seen at emission; At is the emission time on
	// the configured clock.
	Stream int
	Seq    int64
	At     time.Duration
	// Generation is the bundle generation the device was serving when
	// the window tripped.
	Generation uint64
	// Window statistics: the means that were compared against the
	// thresholds, and how many signals tripped.
	Window       int
	MeanEntropy  float64
	MeanNovelty  float64
	Disagreement float64
	Signals      int
	// Centroid is the mean scene embedding of the exemplars — the
	// emerging-scene signature the controller clusters on.
	Centroid tensor.Vector
	// Exemplars are the flagged frames (≤ MaxExemplars).
	Exemplars []*synth.Frame
	// Trace is the report's causal trace ID (telemetry.DriftTrace),
	// minted at emission and carried through the uplink, the cloud
	// controller, the published generation's lineage, and the canary
	// rollout — one ID reconstructs the whole device→cloud→device
	// adaptation journey.
	Trace string
}

// SizeBytes approximates the report's wire size for link accounting:
// a fixed header plus each exemplar's frame-pack encoding (objects and
// cell features dominate).
func (r *Report) SizeBytes() int64 {
	size := int64(96 + 8*len(r.Centroid))
	for _, f := range r.Exemplars {
		size += int64(24 + 11*len(f.Objects) + 8*len(f.Cells))
	}
	return size
}

// DriftDetector watches one stream's frame results for distribution
// drift. It is not safe for concurrent use, but distinct streams'
// detectors are independent, matching MultiRuntime's per-stream
// observer serialization. Feed it from a StreamObserver and handle the
// occasional non-nil Report.
type DriftDetector struct {
	cfg    DriftConfig
	bundle *core.Bundle
	stream int
	gen    uint64

	// Window accumulators.
	count       int
	sumEntropy  float64
	sumNovelty  float64
	probes      int
	disagreed   float64
	exemplars   []*synth.Frame
	centroidSum tensor.Vector

	cooldown int
	seen     int64
	flagged  int64
	emitted  int64

	// Reused probe buffers for the two detector passes.
	predsA, predsB []detect.CellPred
}

// NewDriftDetector builds a detector for one stream over the deployed
// bundle (used for embeddings and disagreement probes; swap it with
// SetBundle when a rollout changes the deployment).
func NewDriftDetector(stream int, b *core.Bundle, cfg DriftConfig) (*DriftDetector, error) {
	if b == nil {
		return nil, fmt.Errorf("adapt: nil bundle")
	}
	if err := b.Validate(); err != nil {
		return nil, err
	}
	cfg.fill()
	return &DriftDetector{
		cfg:         cfg,
		bundle:      b,
		stream:      stream,
		gen:         1,
		centroidSum: tensor.NewVector(b.Encoder.EmbedDim()),
	}, nil
}

// SetBundle points the detector at a newly deployed bundle and resets
// the open window — signals measured half on one repertoire and half on
// another mean nothing.
func (d *DriftDetector) SetBundle(b *core.Bundle, generation uint64) {
	d.bundle = b
	d.gen = generation
	d.resetWindow()
	d.exemplars = nil
	d.centroidSum = tensor.NewVector(b.Encoder.EmbedDim())
}

// Seen returns the number of frames observed; Emitted the number of
// reports produced.
func (d *DriftDetector) Seen() int64    { return d.seen }
func (d *DriftDetector) Emitted() int64 { return d.emitted }

// FlagRate returns the lifetime fraction of observed frames flagged as
// exemplars.
func (d *DriftDetector) FlagRate() float64 {
	if d.seen == 0 {
		return 0
	}
	return float64(d.flagged) / float64(d.seen)
}

// Observe feeds one processed frame. When the frame closes a window
// whose mean signals trip the thresholds (and the detector is out of
// cooldown with enough exemplars), it returns the drift report to ship;
// otherwise nil.
func (d *DriftDetector) Observe(f *synth.Frame, res core.FrameResult) *Report {
	d.seen++
	if d.cooldown > 0 {
		d.cooldown--
	}
	d.count++
	d.sumEntropy += res.Entropy
	d.sumNovelty += res.Novelty

	flag := res.Novelty > d.cfg.NoveltyThreshold || res.Entropy > d.cfg.EntropyThreshold
	if flag {
		d.flagged++
		if len(d.exemplars) < d.cfg.MaxExemplars {
			d.exemplars = append(d.exemplars, f)
			d.centroidSum.AddScaled(1, d.bundle.Encoder.Embed(f))
		}
	}
	if d.cfg.SampleEvery > 0 && d.seen%int64(d.cfg.SampleEvery) == 0 && res.Used != res.RunnerUp {
		d.probes++
		d.disagreed += d.probeDisagreement(f, res.Used, res.RunnerUp)
	}

	if d.count < d.cfg.Window {
		return nil
	}
	rep := d.windowVerdict()
	d.resetWindow()
	return rep
}

// windowVerdict closes the current window, returning a report when it
// trips.
func (d *DriftDetector) windowVerdict() *Report {
	meanEntropy := d.sumEntropy / float64(d.count)
	meanNovelty := d.sumNovelty / float64(d.count)
	disagreement := 0.0
	if d.probes > 0 {
		disagreement = d.disagreed / float64(d.probes)
	}
	signals := 0
	if meanEntropy > d.cfg.EntropyThreshold {
		signals++
	}
	if meanNovelty > d.cfg.NoveltyThreshold {
		signals++
	}
	if disagreement > d.cfg.DisagreementThreshold {
		signals++
	}
	if signals < d.cfg.MinSignals || d.cooldown > 0 || len(d.exemplars) < d.cfg.MinExemplars {
		return nil
	}
	centroid := tensor.NewVector(len(d.centroidSum))
	copy(centroid, d.centroidSum)
	centroid.Scale(1 / float64(len(d.exemplars)))
	rep := &Report{
		Stream:       d.stream,
		Seq:          d.seen,
		At:           d.now(),
		Generation:   d.gen,
		Trace:        telemetry.DriftTrace(d.stream, d.gen, int(d.emitted)),
		Window:       d.count,
		MeanEntropy:  meanEntropy,
		MeanNovelty:  meanNovelty,
		Disagreement: disagreement,
		Signals:      signals,
		Centroid:     centroid,
		Exemplars:    append([]*synth.Frame(nil), d.exemplars...),
	}
	d.emitted++
	d.cooldown = d.cfg.Cooldown
	d.exemplars = nil
	d.centroidSum = tensor.NewVector(len(d.centroidSum))
	return rep
}

func (d *DriftDetector) resetWindow() {
	d.count = 0
	d.sumEntropy, d.sumNovelty = 0, 0
	d.probes, d.disagreed = 0, 0
}

// State snapshots the in-progress window and lifetime counters for a
// restart checkpoint. Exemplar frames and the centroid accumulator are
// deliberately excluded: they are raw frame payloads (large, and
// re-collectable within one window), not statistics — the next window
// after a restart simply samples fresh exemplars.
func (d *DriftDetector) State() pressure.DriftWindow {
	return pressure.DriftWindow{
		Stream:     d.stream,
		Count:      d.count,
		SumEntropy: d.sumEntropy,
		SumNovelty: d.sumNovelty,
		Probes:     d.probes,
		Disagreed:  d.disagreed,
		Cooldown:   d.cooldown,
		Seen:       d.seen,
		Flagged:    d.flagged,
		Emitted:    d.emitted,
	}
}

// RestoreState warm-starts the window accumulators and lifetime
// counters from a checkpoint. The exemplar set and centroid stay
// empty (see State); a window that completes with zero exemplars
// emits no report, so the first post-restore report may take one
// extra window — never a corrupt one.
func (d *DriftDetector) RestoreState(w pressure.DriftWindow) {
	if w.Count < 0 || w.Probes < 0 || w.Cooldown < 0 ||
		w.Seen < 0 || w.Flagged < 0 || w.Emitted < 0 {
		return
	}
	d.count = w.Count
	d.sumEntropy = w.SumEntropy
	d.sumNovelty = w.SumNovelty
	d.probes = w.Probes
	d.disagreed = w.Disagreed
	d.cooldown = w.Cooldown
	d.seen = w.Seen
	d.flagged = w.Flagged
	d.emitted = w.Emitted
}

// now timestamps a report by the detector's own frame counter, one
// prefetch.DefaultFrameInterval per frame.
func (d *DriftDetector) now() time.Duration {
	return time.Duration(d.seen) * prefetch.DefaultFrameInterval
}

// probeDisagreement runs the serving model and the decision head's
// runner-up on one frame and returns one minus the Jaccard overlap of
// their positive cells: 0 when the two detectors agree everywhere mass
// is, 1 when they find disjoint objects. A frame where neither fires
// scores 0 — an empty scene is not evidence of drift.
func (d *DriftDetector) probeDisagreement(f *synth.Frame, a, b int) float64 {
	n := d.bundle.NumModels()
	if a < 0 || b < 0 || a >= n || b >= n {
		return 0
	}
	d.predsA = d.bundle.Detectors[a].DetectFrame(d.predsA, f)
	d.predsB = d.bundle.Detectors[b].DetectFrame(d.predsB, f)
	const positive = 0.5
	var both, either float64
	for i := range d.predsA {
		pa := d.predsA[i].Objectness >= positive
		pb := d.predsB[i].Objectness >= positive
		switch {
		case pa && pb:
			if d.predsA[i].Class == d.predsB[i].Class {
				both++
			}
			either++
		case pa || pb:
			either++
		}
	}
	if either == 0 {
		return 0
	}
	return 1 - both/either
}
