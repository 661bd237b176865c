package adapt

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"time"

	"anole/internal/core"
	"anole/internal/detect"
	"anole/internal/flight"
	"anole/internal/prefetch"
	"anole/internal/pressure"
	"anole/internal/repo"
	"anole/internal/slo"
	"anole/internal/synth"
	"anole/internal/telemetry"
)

// Submitter is the device's view of the cloud controller: a drift
// report goes in; when it completes a retrain, the new generation comes
// back. Controller satisfies it directly (in-process); HTTPSubmitter
// speaks the same contract to anole-server's POST /v1/drift endpoint.
type Submitter interface {
	Submit(rep *Report) (gen uint64, published bool, err error)
}

// promotionAware is the optional Submitter surface for closing the
// rollout loop back to the cloud; Controller satisfies it.
type promotionAware interface {
	ConfirmPromotion(gen uint64, b *core.Bundle)
	NoteRollback(failedGen, restoredGen uint64) error
}

// BundleSource fetches a published generation's serialized bundle plus
// the digest the publisher claims for it. The Loop trusts neither: it
// re-hashes the payload, checks it against the claim, and fully decodes
// and validates the bundle before any stream serves it.
type BundleSource interface {
	FetchGeneration(gen uint64) (payload []byte, sha256hex string, err error)
}

// serverSource adapts an in-process repo.Server into a BundleSource,
// taking the claimed digest from the generation's publish lineage entry.
type serverSource struct{ s *repo.Server }

// NewServerSource wraps an in-process repository server.
func NewServerSource(s *repo.Server) BundleSource { return serverSource{s} }

func (ss serverSource) FetchGeneration(gen uint64) ([]byte, string, error) {
	data, ok := ss.s.GenerationBundleBytes(gen)
	if !ok {
		return nil, "", fmt.Errorf("adapt: generation %d not in repository", gen)
	}
	for _, le := range ss.s.Lineage() {
		if le.Generation == gen && le.Event == repo.LineageEventPublish {
			return data, le.BundleSHA256, nil
		}
	}
	return nil, "", fmt.Errorf("adapt: no publish lineage for generation %d", gen)
}

// LoopConfig wires a Loop.
type LoopConfig struct {
	// Drift configures every stream's drift detector.
	Drift DriftConfig
	// Rollout configures the canary state machine.
	Rollout RolloutConfig
	// Submitter receives drift reports (required).
	Submitter Submitter
	// Source serves candidate generations (required).
	Source BundleSource
	// Uplink carries reports; nil means a perfect free link.
	Uplink *Uplink
	// RegisterModels, when non-nil, teaches the transport about a new
	// generation's added models before they become prefetch-eligible
	// (e.g. prefetch.LinkFetcher.AddModels).
	RegisterModels func([]prefetch.Model) error
	// Pressure, when non-nil, gates the uplink: drift reports stay
	// queued (not dropped) while the monitor reads Critical, so an
	// overloaded device spends no control-plane bytes until pressure
	// relaxes.
	Pressure *pressure.Monitor
	// Metrics, when non-nil, receives the anole_adapt_* loop series. Nil
	// keeps them in a private registry; Stats reads the same counters
	// either way.
	Metrics *telemetry.Registry
	// Tracer, when non-nil, records one span per control-plane event
	// (report send, canary start, promotion, rollback) under the
	// StageAdapt stage, tagged with the drift journey's trace ID.
	Tracer *telemetry.Tracer
	// Flight, when non-nil, receives the loop's anomaly-relevant
	// events: rollbacks (which trip a diagnostic dump), candidate
	// rejections, promotions, and checkpoint restores/rejects.
	Flight *flight.Recorder
	// SLO, when non-nil, is fed swap staleness at each promotion — the
	// publish-to-fleet-swap delay of the adaptation loop.
	SLO *slo.Engine
}

// StageAdapt is the telemetry span stage recorded for control-plane
// events (alongside the frame pipeline's decide/cache/fetch/detect).
const StageAdapt = "adapt"

// LoopStats summarizes a Run for reports and -json output. Loop.Stats
// reads it from the loop's counters, the ones the registry exports as
// anole_adapt_*_total (and, for DeferredReports, a child of
// anole_pressure_deferred_reports_total).
type LoopStats struct {
	DriftEvents        int64  `json:"driftEvents"`
	ReportsSent        int64  `json:"reportsSent"`
	ReportFailures     int64  `json:"reportFailures"`
	ReportBytes        int64  `json:"reportBytes"`
	GenerationsApplied int64  `json:"generationsApplied"`
	CanaryStarts       int64  `json:"canaryStarts"`
	Promotions         int64  `json:"promotions"`
	Rollbacks          int64  `json:"rollbacks"`
	RejectedCandidates int64  `json:"rejectedCandidates"`
	PurgedModels       int64  `json:"purgedModels"`
	FleetGeneration    uint64 `json:"fleetGeneration"`
	// DeferredReports counts control points where the pending report
	// queue was held back by Critical resource pressure.
	DeferredReports int64 `json:"deferredReports"`
}

// streamChunk is one stream's order-independent accumulator for one
// processing chunk; the driver folds them in stream order.
type streamChunk struct {
	frames   int64
	sumF1    float64
	degraded int64
	reports  []*Report
}

// Loop is the device-side orchestrator that closes the adaptation loop
// around a MultiRuntime fleet: it chunks frame processing, watches every
// stream for drift, ships reports over the uplink, deploys published
// candidate generations to the canary stream, and promotes or rolls
// back on the rollout verdict. All control actions happen between
// ProcessStreams chunks on the driver goroutine, so a Run is
// deterministic for a fixed seed and configuration.
type Loop struct {
	cfg     LoopConfig
	m       *core.MultiRuntime
	rollout *Rollout
	dets    []*DriftDetector

	// Fleet state: the generation and bundle every non-canary stream
	// serves, and the candidate under canary (nil outside a canary).
	fleetGen  uint64
	fleet     *core.Bundle
	candGen   uint64
	cand      *core.Bundle
	breakBase int64 // prefetch breaker opens when the canary began
	// candTrace is the drift journey trace that published the candidate
	// under canary; candPubAt is when its publish verdict arrived (on
	// the SLO clock), feeding swap staleness at promotion.
	candTrace string
	candPubAt time.Duration
	// deferred is a generation published while a canary was already in
	// flight (rollouts are single-flight); it is considered once the
	// active canary resolves, carrying its own trace and publish time.
	deferred      uint64
	deferredTrace string
	deferredPubAt time.Duration
	pending       []*Report
	chunks        []streamChunk

	// Counters on cfg.Metrics or a private registry; mDeferred is a Child
	// of the pressure monitor's deferred-reports counter.
	mDrift, mSent, mFailed, mBytes *telemetry.Counter
	mCanary, mPromote, mRollback   *telemetry.Counter
	mRejected, mPurged, mDeferred  *telemetry.Counter
	gGeneration                    *telemetry.Gauge
}

// NewLoop builds a Loop over the fleet. The MultiRuntime must already
// be configured (streams, cache, optional prefetch); the Loop never
// creates streams, it only swaps bundles on them.
func NewLoop(m *core.MultiRuntime, cfg LoopConfig) (*Loop, error) {
	if m == nil {
		return nil, fmt.Errorf("adapt: nil runtime")
	}
	if cfg.Submitter == nil {
		return nil, fmt.Errorf("adapt: nil submitter")
	}
	if cfg.Source == nil {
		return nil, fmt.Errorf("adapt: nil bundle source")
	}
	cfg.Drift.fill()
	cfg.Rollout.fill()
	if cfg.Rollout.CanaryStream >= m.NumStreams() {
		return nil, fmt.Errorf("adapt: canary stream %d, fleet has %d streams",
			cfg.Rollout.CanaryStream, m.NumStreams())
	}
	l := &Loop{
		cfg:      cfg,
		m:        m,
		rollout:  NewRollout(cfg.Rollout),
		fleetGen: 1, // a fresh repo.Server's seed generation
		fleet:    m.Bundle(),
		chunks:   make([]streamChunk, m.NumStreams()),
	}
	for i := 0; i < m.NumStreams(); i++ {
		d, err := NewDriftDetector(i, m.Bundle(), cfg.Drift)
		if err != nil {
			return nil, err
		}
		d.gen = l.fleetGen
		l.dets = append(l.dets, d)
	}
	reg := cfg.Metrics
	if reg == nil {
		reg = telemetry.NewRegistry()
	}
	l.mDrift = reg.Counter("anole_adapt_drift_events_total", "Drift reports emitted by stream detectors.")
	l.mSent = reg.Counter("anole_adapt_reports_sent_total", "Drift reports delivered over the uplink.")
	l.mFailed = reg.Counter("anole_adapt_report_failures_total", "Drift report transfers lost to the link.")
	l.mBytes = reg.Counter("anole_adapt_report_bytes_total", "Upstream bytes spent on drift reports.")
	l.mCanary = reg.Counter("anole_adapt_canary_starts_total", "Candidate generations deployed to the canary stream.")
	l.mPromote = reg.Counter("anole_adapt_promotions_total", "Canaries promoted fleet-wide.")
	l.mRollback = reg.Counter("anole_adapt_rollbacks_total", "Canaries rolled back to the incumbent generation.")
	l.mRejected = reg.Counter("anole_adapt_rejected_candidates_total", "Published candidates that failed verification before deployment.")
	l.mPurged = reg.Counter("anole_adapt_purged_models_total", "Stale cached models evicted after promotion or rollback.")
	l.mDeferred = cfg.Pressure.Counters().DeferredReports.Child()
	l.gGeneration = reg.Gauge("anole_adapt_fleet_generation", "Bundle generation the non-canary fleet serves.")
	l.gGeneration.Set(float64(l.fleetGen))
	return l, nil
}

// Stats returns the loop counters accumulated so far. Every promotion
// applies one generation, so GenerationsApplied equals Promotions.
func (l *Loop) Stats() LoopStats {
	return LoopStats{
		DriftEvents:        l.mDrift.Value(),
		ReportsSent:        l.mSent.Value(),
		ReportFailures:     l.mFailed.Value(),
		ReportBytes:        l.mBytes.Value(),
		GenerationsApplied: l.mPromote.Value(),
		CanaryStarts:       l.mCanary.Value(),
		Promotions:         l.mPromote.Value(),
		Rollbacks:          l.mRollback.Value(),
		RejectedCandidates: l.mRejected.Value(),
		PurgedModels:       l.mPurged.Value(),
		FleetGeneration:    l.fleetGen,
		DeferredReports:    l.mDeferred.Value(),
	}
}

// Rollout exposes the canary state machine (read-only use).
func (l *Loop) Rollout() *Rollout { return l.rollout }

// Detector returns stream i's drift detector.
func (l *Loop) Detector(i int) *DriftDetector { return l.dets[i] }

// FleetBundle returns the bundle backing the fleet generation.
func (l *Loop) FleetBundle() *core.Bundle { return l.fleet }

// Run drives every stream through its frames in segments of one drift
// window, executing the adaptation control phase between segments —
// drift reports drain, canaries start and resolve only at segment
// boundaries, on the driver goroutine — and returns the per-stream frame
// results (concatenated across segments, same shape as
// MultiRuntime.ProcessStreams). An obs observer, when non-nil, is
// invoked exactly as ProcessStreams would invoke it.
func (l *Loop) Run(streams [][]*synth.Frame, obs core.StreamObserver) ([][]core.FrameResult, error) {
	if len(streams) != l.m.NumStreams() {
		return nil, fmt.Errorf("adapt: %d frame slices for %d streams", len(streams), l.m.NumStreams())
	}
	results := make([][]core.FrameResult, len(streams))
	maxLen := 0
	for i, s := range streams {
		results[i] = make([]core.FrameResult, 0, len(s))
		if len(s) > maxLen {
			maxLen = len(s)
		}
	}
	for start := 0; start < maxLen; start += l.cfg.Drift.Window {
		end := start + l.cfg.Drift.Window
		chunk := make([][]*synth.Frame, len(streams))
		for i, s := range streams {
			lo, hi := start, end
			if lo > len(s) {
				lo = len(s)
			}
			if hi > len(s) {
				hi = len(s)
			}
			chunk[i] = s[lo:hi]
		}
		res, err := l.m.ProcessStreams(chunk, l.observer(obs))
		if err != nil {
			return results, err
		}
		for i := range res {
			results[i] = append(results[i], res[i]...)
		}
		if err := l.controlPhase(); err != nil {
			return results, err
		}
	}
	return results, nil
}

// observer builds the per-chunk StreamObserver: it feeds the stream's
// drift detector and chunk accumulator (per-stream state — MultiRuntime
// serializes observer calls within a stream) and chains to the caller's
// observer. The canary stream's drift detector pauses while a canary is
// active: that stream is the experiment, not a witness, and its frames
// are judged by the rollout window instead. (Rollout state only changes
// between chunks, so reading it here is race-free.)
func (l *Loop) observer(chained core.StreamObserver) core.StreamObserver {
	return func(stream int, f *synth.Frame, res core.FrameResult) error {
		c := &l.chunks[stream]
		c.frames++
		c.sumF1 += res.Metrics.F1
		if res.Degraded {
			c.degraded++
		}
		inCanary := l.rollout.State() == RolloutCanary && stream == l.cfg.Rollout.CanaryStream
		if !inCanary {
			if rep := l.dets[stream].Observe(f, res); rep != nil {
				c.reports = append(c.reports, rep)
			}
		}
		if chained != nil {
			return chained(stream, f, res)
		}
		return nil
	}
}

// controlPhase runs between chunks on the driver goroutine: fold the
// chunk telemetry into the rollout, resolve a ready canary, ship
// pending drift reports, and deploy any newly published generation.
func (l *Loop) controlPhase() error {
	canaryStream := l.cfg.Rollout.CanaryStream
	for i := range l.chunks {
		c := &l.chunks[i]
		l.rollout.Accumulate(i == canaryStream, c.frames, c.sumF1, c.degraded)
		l.mDrift.Add(int64(len(c.reports)))
		l.pending = append(l.pending, c.reports...)
		*c = streamChunk{}
	}
	if pf := l.m.Prefetcher(); pf != nil && l.rollout.State() == RolloutCanary {
		opens := pf.Stats().BreakerOpens
		if delta := opens - l.breakBase; delta > 0 {
			l.rollout.ObserveBreakerOpens(delta)
			l.breakBase = opens
		}
	}
	if l.rollout.Ready() {
		if err := l.resolveCanary(); err != nil {
			return err
		}
		// A generation published while that canary was in flight gets
		// its turn now. startCanary re-verifies it against the (possibly
		// just-promoted) fleet; a stale candidate is rejected there.
		if gen := l.deferred; gen != 0 {
			trace, pubAt := l.deferredTrace, l.deferredPubAt
			l.deferred, l.deferredTrace, l.deferredPubAt = 0, "", 0
			if gen > l.fleetGen {
				if err := l.startCanary(gen, trace, pubAt); err != nil {
					return err
				}
			}
		}
	}
	return l.shipReports()
}

// shipReports drains the pending queue over the uplink in emission
// order. A failed transfer keeps the report (and everything behind it)
// queued for the next control point — the link that dropped one report
// is down for the rest too. Under Critical resource pressure the whole
// queue defers: drift reporting is the least urgent traffic a
// struggling device carries, and the reports keep accumulating for the
// first calm control point.
func (l *Loop) shipReports() error {
	if l.cfg.Pressure.Level() >= pressure.Critical && len(l.pending) > 0 {
		l.mDeferred.Inc()
		return nil
	}
	for len(l.pending) > 0 {
		rep := l.pending[0]
		size := rep.SizeBytes()
		if l.cfg.Uplink != nil {
			if _, err := l.cfg.Uplink.Send(size); err != nil {
				l.mFailed.Inc()
				return nil
			}
		}
		l.pending = l.pending[1:]
		l.mSent.Inc()
		l.mBytes.Add(size)
		l.span(rep.Stream, "report", rep.Trace)
		gen, published, err := l.cfg.Submitter.Submit(rep)
		if err != nil {
			// A failed retrain is a cloud-side problem; the report was
			// delivered. Keep going.
			continue
		}
		if !published || gen <= l.fleetGen {
			continue
		}
		if l.rollout.State() == RolloutCanary {
			// Single-flight: park the newer generation until the active
			// canary resolves (latest publish wins).
			l.deferred = gen
			l.deferredTrace = rep.Trace
			l.deferredPubAt = l.cfg.SLO.Now()
			continue
		}
		if err := l.startCanary(gen, rep.Trace, l.cfg.SLO.Now()); err != nil {
			return err
		}
	}
	return nil
}

// startCanary fetches, verifies, and deploys generation gen to the
// canary stream, carrying the publishing journey's trace ID and
// publish time. Any verification failure rejects the candidate without
// touching the fleet — nothing unverified is ever served.
func (l *Loop) startCanary(gen uint64, trace string, pubAt time.Duration) error {
	nb, err := l.verifyCandidate(gen)
	if err != nil {
		l.mRejected.Inc()
		l.cfg.Flight.Record(flight.Event{
			Stream: l.cfg.Rollout.CanaryStream,
			Kind:   flight.KindSwap,
			Detail: "reject",
			Trace:  trace,
			Value:  float64(gen),
		})
		if pa, ok := l.cfg.Submitter.(promotionAware); ok {
			// The cloud serves a generation no device will run; revert it.
			if rbErr := pa.NoteRollback(gen, l.fleetGen); rbErr != nil {
				return fmt.Errorf("adapt: reject generation %d (%v) and rollback failed: %w", gen, err, rbErr)
			}
		}
		return nil
	}
	if l.cfg.RegisterModels != nil {
		if err := l.cfg.RegisterModels(newModels(l.fleet, nb)); err != nil {
			return fmt.Errorf("adapt: register candidate models: %w", err)
		}
	}
	if pf := l.m.Prefetcher(); pf != nil {
		if err := pf.ExtendModels(newModels(l.fleet, nb)); err != nil {
			return fmt.Errorf("adapt: extend prefetch models: %w", err)
		}
		l.breakBase = pf.Stats().BreakerOpens
	}
	canary := l.cfg.Rollout.CanaryStream
	if err := l.m.SwapStreamBundle(canary, nb); err != nil {
		return fmt.Errorf("adapt: deploy canary: %w", err)
	}
	if err := l.rollout.Begin(gen, l.fleetGen); err != nil {
		return err
	}
	l.candGen, l.cand = gen, nb
	l.candTrace, l.candPubAt = trace, pubAt
	l.dets[canary].SetBundle(nb, gen)
	l.mCanary.Inc()
	l.span(canary, "canary_start", trace)
	return nil
}

// verifyCandidate downloads generation gen and proves it sound: the
// payload hashes to the publisher's claimed digest, decodes as a bundle,
// passes bundle validation, and is shape-compatible with the fleet.
func (l *Loop) verifyCandidate(gen uint64) (*core.Bundle, error) {
	payload, claimed, err := l.cfg.Source.FetchGeneration(gen)
	if err != nil {
		return nil, err
	}
	got := fmt.Sprintf("%x", sha256.Sum256(payload))
	if got != claimed {
		return nil, fmt.Errorf("adapt: generation %d digest mismatch: claimed %s, got %s", gen, claimed, got)
	}
	nb, err := repo.ReadBundle(bytes.NewReader(payload))
	if err != nil {
		return nil, fmt.Errorf("adapt: decode generation %d: %w", gen, err)
	}
	if err := nb.Validate(); err != nil {
		return nil, fmt.Errorf("adapt: validate generation %d: %w", gen, err)
	}
	if nb.Encoder.EmbedDim() != l.fleet.Encoder.EmbedDim() {
		return nil, fmt.Errorf("adapt: generation %d embed dim %d, fleet %d",
			gen, nb.Encoder.EmbedDim(), l.fleet.Encoder.EmbedDim())
	}
	if nb.NumModels() < l.fleet.NumModels() {
		return nil, fmt.Errorf("adapt: generation %d shrinks the repertoire (%d < %d)",
			gen, nb.NumModels(), l.fleet.NumModels())
	}
	// Model names are cache and fetch keys, so a name the candidate
	// shares with the fleet must carry the very same weights — otherwise
	// the two generations would fight over one cache slot during the
	// canary. A mismatch means the candidate was trained against a base
	// the fleet has since left behind (e.g. published mid-canary and
	// resolved after a promotion); it is stale, not canary-able.
	fleetDigests := make(map[string]string, l.fleet.NumModels())
	for _, d := range l.fleet.Detectors {
		fleetDigests[d.Name] = detectorDigest(d)
	}
	for _, d := range nb.Detectors {
		want, shared := fleetDigests[d.Name]
		if shared && detectorDigest(d) != want {
			return nil, fmt.Errorf("adapt: generation %d redefines model %q with different weights (stale base)",
				gen, d.Name)
		}
	}
	return nb, nil
}

// detectorDigest hashes a detector's serialized weights.
func detectorDigest(d *detect.Detector) string {
	h := sha256.New()
	if _, err := d.Weights().WriteTo(h); err != nil {
		return fmt.Sprintf("unserializable: %v", err)
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// resolveCanary closes a ready canary window: promote the candidate
// fleet-wide or restore the canary stream to the incumbent.
func (l *Loop) resolveCanary() error {
	verdict, err := l.rollout.Decide()
	if err != nil {
		return err
	}
	canary := l.cfg.Rollout.CanaryStream
	if verdict.Promote {
		if err := l.m.SwapAllBundles(l.cand); err != nil {
			return fmt.Errorf("adapt: promote generation %d: %w", l.candGen, err)
		}
		l.fleet, l.fleetGen = l.cand, l.candGen
		for _, d := range l.dets {
			d.SetBundle(l.fleet, l.fleetGen)
		}
		if pa, ok := l.cfg.Submitter.(promotionAware); ok {
			pa.ConfirmPromotion(l.fleetGen, l.fleet)
		}
		l.mPromote.Inc()
		l.gGeneration.Set(float64(l.fleetGen))
		l.span(canary, "promote", l.candTrace)
		l.cfg.Flight.Record(flight.Event{
			Stream: flight.GlobalStream,
			Kind:   flight.KindSwap,
			Detail: "promote",
			Trace:  l.candTrace,
			Value:  float64(l.fleetGen),
		})
		// Swap staleness: how long the fleet waited between the cloud
		// publishing this generation and every stream serving it.
		l.cfg.SLO.ObserveStaleness(canary, l.cfg.SLO.Now()-l.candPubAt)
	} else {
		if err := l.m.SwapStreamBundle(canary, l.fleet); err != nil {
			return fmt.Errorf("adapt: rollback canary to generation %d: %w", l.fleetGen, err)
		}
		l.dets[canary].SetBundle(l.fleet, l.fleetGen)
		if pa, ok := l.cfg.Submitter.(promotionAware); ok {
			if err := pa.NoteRollback(l.candGen, l.fleetGen); err != nil {
				return fmt.Errorf("adapt: note rollback of generation %d: %w", l.candGen, err)
			}
		}
		l.mRollback.Inc()
		l.span(canary, "rollback", l.candTrace)
		// A rollback is an anomaly: this Record freezes the flight ring
		// and captures a diagnostic dump with the journey's trace.
		l.cfg.Flight.Record(flight.Event{
			Stream: canary,
			Kind:   flight.KindRollback,
			Detail: fmt.Sprintf("generation %d", l.candGen),
			Trace:  l.candTrace,
			Value:  float64(l.candGen),
		})
	}
	l.mPurged.Add(int64(l.m.PurgeStaleModels()))
	l.candGen, l.cand = 0, nil
	l.candTrace, l.candPubAt = "", 0
	return nil
}

// span records one control-plane event on the tracer, tagged with the
// drift journey's trace ID so /debug/spans?trace= stitches the event
// into the device→cloud→device adaptation journey.
func (l *Loop) span(stream int, event, trace string) {
	if l.cfg.Tracer == nil {
		return
	}
	l.cfg.Tracer.Record(telemetry.Span{
		Seq:    l.cfg.Tracer.NextSeq(),
		Stream: stream,
		Stage:  StageAdapt,
		Model:  -1,
		Event:  event,
		Trace:  trace,
	})
}

// CaptureCheckpoint fills c with the loop's share of a restart
// checkpoint: the fleet generation pin and every stream's in-progress
// drift window. Call it between chunks (the same driver-goroutine
// safe point as controlPhase); the MultiRuntime contributes the Markov
// and cache-manifest fields separately.
func (l *Loop) CaptureCheckpoint(c *pressure.Checkpoint) {
	if c == nil {
		return
	}
	c.Generation = l.fleetGen
	c.Drift = c.Drift[:0]
	for _, d := range l.dets {
		c.Drift = append(c.Drift, d.State())
	}
}

// RestoreCheckpoint warm-starts the drift detectors from c. Windows
// are only restored when the checkpoint's generation matches the
// generation this loop booted with — window statistics measured on a
// different repertoire mean nothing (the same reason SetBundle resets
// the window). A mismatch is not an error: the loop simply cold-starts
// its detectors and reports how many windows it restored.
func (l *Loop) RestoreCheckpoint(c *pressure.Checkpoint) (restored int) {
	if c == nil {
		return 0
	}
	if c.Generation != l.fleetGen {
		// A rejected checkpoint is an anomaly — the device lost its
		// warm-start state to a generation skew worth diagnosing.
		l.cfg.Flight.Record(flight.Event{
			Stream: flight.GlobalStream,
			Kind:   flight.KindCheckpoint,
			Detail: flight.DetailReject,
			Value:  float64(c.Generation),
		})
		return 0
	}
	for _, w := range c.Drift {
		if w.Stream < 0 || w.Stream >= len(l.dets) {
			continue
		}
		l.dets[w.Stream].RestoreState(w)
		restored++
	}
	l.cfg.Flight.Record(flight.Event{
		Stream: flight.GlobalStream,
		Kind:   flight.KindCheckpoint,
		Detail: flight.DetailRestore,
		Value:  float64(restored),
	})
	return restored
}

// newModels returns the prefetch entries for detectors present in next
// but not in prev (matched by name — the cache/fetch key).
func newModels(prev, next *core.Bundle) []prefetch.Model {
	known := make(map[string]bool, prev.NumModels())
	for _, d := range prev.Detectors {
		known[d.Name] = true
	}
	var out []prefetch.Model
	for _, pm := range core.PrefetchModels(next) {
		if !known[pm.Name] {
			out = append(out, pm)
		}
	}
	return out
}
