package core

import (
	"context"
	"fmt"
	"sync"
	"time"

	"anole/internal/device"
	"anole/internal/modelcache"
	"anole/internal/prefetch"
	"anole/internal/stats"
	"anole/internal/synth"
	"anole/internal/telemetry"
	"anole/internal/tensor"
)

// RuntimeConfig controls the on-device inference loop.
type RuntimeConfig struct {
	// CacheSlots is the model cache capacity in compressed-model units
	// (default 5, the knee of Fig. 7b).
	CacheSlots int
	// Policy is the eviction policy (default LFU, the paper's choice).
	Policy modelcache.Policy
	// Store, when non-nil, is the model cache the runtime uses instead
	// of constructing its own one-shard cache from CacheSlots/Policy.
	// MultiRuntime passes one shared store to every stream; when set,
	// the Cache and MissRate fields of Stats reflect that shared store,
	// not this runtime alone.
	Store *modelcache.Sharded
	// Device, when non-nil, charges simulated latency/energy/memory for
	// every decision, load and inference.
	Device *device.Simulator
	// SwitchHysteresis requires a challenger model to rank top-1 for
	// this many consecutive frames before the runtime switches to it
	// (≤1 = switch immediately, the paper's per-sample selection).
	// Hysteresis trades a little selection agility for fewer model
	// switches and cache loads on noisy decision boundaries.
	SwitchHysteresis int
	// Prefetch, when non-nil, makes the runtime build its own
	// prefetch.Scheduler from this config (the Fetcher field must be
	// set): model bytes then travel the device↔cloud link, absent
	// desired models pay an on-demand fetch stall, and predicted next
	// models are prefetched in the background after each switch. The
	// runtime owns the scheduler; call Close to cancel its pending
	// transfers. Prefetch completions land inside the scheduler's
	// per-frame Tick (or a demand fetch) and insert into the cache
	// there, under the cache's shard lock.
	Prefetch *prefetch.Config
	// Prefetcher, when non-nil, attaches a pre-built (possibly shared)
	// scheduler instead; it takes precedence over Prefetch and is NOT
	// closed by Runtime.Close — its owner closes it. The scheduler's
	// store must be the same cache this runtime resolves requests
	// against.
	Prefetcher *prefetch.Scheduler
	// Tracer, when non-nil, records one span per pipeline stage per
	// frame — decide (scene-encode + decision head), cache, fetch,
	// detect — into the tracer's bounded ring. StreamID tags the spans
	// (MultiRuntime sets it per stream).
	Tracer   *telemetry.Tracer
	StreamID int
	// metrics, when non-nil, is the telemetry registry MultiRuntime
	// shares across its streams: each stream's counted events feed its
	// anole_core_*_total counters (see streamCounts), and its latency and
	// stall histograms are registered there.
	metrics *telemetry.Registry
	// sizer, when non-nil, is the shared byte-size registry the store's
	// byte accounting reads (MultiRuntime passes one registry covering
	// the fleet bundle and every planner variant, so streams on
	// different variants never clobber each other's sizes).
	sizer *sizerRegistry
	// DegradedRetryFrames and DegradedRetryCap control the stale-serve
	// hysteresis entered when the decided model cannot be fetched: after
	// a failed demand fetch the runtime serves the best resident model
	// and waits DegradedRetryFrames frames (default 4) before probing
	// the link again, doubling the wait on every consecutive failure up
	// to DegradedRetryCap frames (default 32). The cap bounds recovery:
	// once the link is restored, at most DegradedRetryCap frames pass
	// before a probe succeeds and the decided model serves again.
	DegradedRetryFrames int
	DegradedRetryCap    int
}

// FrameResult reports one processed frame.
type FrameResult struct {
	// Desired is the top-ranked model index; Used is the model that
	// actually ran (differs from Desired on a cache miss).
	Desired int
	Used    int
	// Hit reports whether Desired was already cached.
	Hit bool
	// Switched reports whether Desired differs from the previous
	// frame's Desired (the scene-change signal of Fig. 7a).
	Switched bool
	// Metrics is the detection outcome against ground truth.
	Metrics stats.PRF1
	// Latency is the simulated end-to-end delay (zero without a device
	// simulator): decision + (load on admitted miss) + inference, plus
	// FetchStall when the desired model had to come over the link.
	Latency time.Duration
	// FetchStall is the time this frame spent waiting for the desired
	// model's bytes on the device↔cloud link (zero without a prefetch
	// scheduler, and zero when the model was already resident — warm or
	// prefetched).
	FetchStall time.Duration
	// Confidence is the decision model's top suitability probability.
	Confidence float64
	// Novelty scores how far the frame sits from every known scene
	// (see Bundle.NoveltyOfEmbedding); 0 when the bundle has no
	// calibration.
	Novelty float64
	// Entropy is the normalized Shannon entropy of the decision-score
	// distribution, in [0, 1]: near 0 when one model clearly dominates,
	// near 1 when the head cannot tell the repertoire apart. Drift
	// detection windows it as an uncertainty signal.
	Entropy float64
	// RunnerUp is the second-ranked model index (equal to Desired when
	// the repertoire has a single model). Drift detection probes it on
	// sampled frames to measure detector disagreement.
	RunnerUp int
	// Degraded marks a frame served in degraded mode: the decided model
	// was absent and the link could not deliver it (or the runtime was
	// waiting out a failed fetch's backoff window), so a stale resident
	// model served the frame.
	Degraded bool
	// Verdict is the frame's terminal disposition under overload (see
	// FrameVerdict). The zero value is VerdictServed, so runs without
	// the pressure machinery are unchanged.
	Verdict FrameVerdict
}

// RunStats summarizes a runtime's history. Its event counts (Frames,
// Switches, ColdMisses, DegradedFrames, FallbackServed and the overload
// verdicts) are read from the counters the runtime writes once per event,
// the same counters whose totals the telemetry registry exports, so a
// report and a /metrics scrape of one run agree by construction.
type RunStats struct {
	Frames   int
	Switches int
	// SceneDurations are the lengths of maximal runs of frames sharing
	// one desired model — the paper's "scene duration" measured "as the
	// number of frames without model switching" (Fig. 7a).
	SceneDurations []int
	// DesiredCounts is how often each model ranked top-1 (Fig. 4b).
	DesiredCounts []int
	// UsedCounts is how often each model actually served a frame.
	UsedCounts []int
	// Cache carries hit/miss/eviction counters; MissRate is derived.
	Cache    modelcache.Stats
	MissRate float64
	// Detection aggregates matching counts over all frames.
	Detection stats.PRF1
	// TotalLatency sums simulated per-frame latency.
	TotalLatency time.Duration
	// ColdMisses counts frames whose desired model was absent from the
	// cache and had to be fetched over the link; FetchStall is the total
	// time those fetches stalled frames. Both stay zero without a
	// prefetch scheduler.
	ColdMisses int
	FetchStall time.Duration
	// DegradedFrames counts frames served in degraded mode (the decided
	// model was unfetchable and a stale resident model served instead);
	// FallbackServed counts every frame whose serving model differed
	// from the decided one — degraded frames plus ordinary
	// load-in-background fallbacks. No frame is ever dropped: each one
	// is served by the decided model or counted here.
	DegradedFrames int
	FallbackServed int
	// Overload-survival counters (all zero without the pressure
	// machinery): ShedFrames were dropped at admission by the shed
	// ladder, DowngradedServed were served by the smallest resident
	// model instead of the decided one, QuarantinedFrames were disposed
	// because their stream was quarantined. Shed and quarantined frames
	// do not count toward Frames — Frames remains "frames that ran the
	// pipeline".
	ShedFrames        int
	DowngradedServed  int
	QuarantinedFrames int
}

// MeanSceneDuration returns the average desired-model run length.
func (s RunStats) MeanSceneDuration() float64 {
	if len(s.SceneDurations) == 0 {
		return 0
	}
	var sum int
	for _, d := range s.SceneDurations {
		sum += d
	}
	return float64(sum) / float64(len(s.SceneDurations))
}

// Runtime is the Online Model Inference loop. It is not safe for
// concurrent use (one runtime per device); MultiRuntime multiplexes
// several of them over one shared cache.
type Runtime struct {
	bundle     *Bundle
	cache      *modelcache.Sharded
	dev        *device.Simulator
	hysteresis int
	// pf, when non-nil, gates model residency on the device↔cloud link;
	// ownsPF marks a scheduler built by NewRuntime (closed by Close).
	pf     *prefetch.Scheduler
	ownsPF bool
	// Degraded-mode state: retryBase/retryCap are the configured backoff
	// bounds; degradedWait is the frames left before the next link
	// probe; degradedStreak counts consecutive failed probes (drives the
	// doubling).
	retryBase      int
	retryCap       int
	degradedWait   int
	degradedStreak int
	// sizer is the byte-size registry backing the store's sizer func.
	sizer *sizerRegistry
	// pfOffset shifts this stream's model indices into the shared
	// prefetch scheduler's model space when the stream runs a planner
	// variant: variant v's detector i registers at v×NumModels+i, so
	// the Markov chain and link transfers track each variant's models
	// separately. Zero for the base bundle.
	pfOffset int

	prevDesired int
	runLen      int
	// committed is the hysteresis-smoothed desired model; candidate and
	// streak track the current challenger.
	committed int
	candidate int
	streak    int
	// counts holds the stream's counted events; stats holds the rest of
	// its history (scene durations, per-model counts, detection, latency
	// sums), and Stats merges the two.
	counts streamCounts
	stats  RunStats

	// Reused per-frame working buffers: the frame feature, the
	// embedding, the score vector, the model ranking and which models
	// were resident before the frame's cache request. The bundle's
	// models are frozen weights, so the steady-state frame step performs
	// no per-frame heap allocations.
	featBuf     tensor.Vector
	embBuf      tensor.Vector
	scoresBuf   []float64
	rankBuf     []int
	residentBuf []bool

	// met/tracer/streamID are the telemetry attachment (see
	// RuntimeConfig.Tracer); all handles are nil-safe.
	met      frameMetrics
	tracer   *telemetry.Tracer
	streamID int
	// frameTrace is the causal trace ID of the frame currently in
	// flight, minted in beginFrame and stamped on every stage span. It
	// is derived purely from (stream, seq), so seeded reruns mint
	// identical IDs. Empty when tracing is off.
	frameTrace string
}

// NewRuntime prepares the OMI loop for a downloaded bundle.
func NewRuntime(b *Bundle, cfg RuntimeConfig) (*Runtime, error) {
	if err := b.Validate(); err != nil {
		return nil, err
	}
	store := cfg.Store
	if store == nil {
		if cfg.CacheSlots <= 0 {
			cfg.CacheSlots = 5
		}
		if cfg.Policy == 0 {
			cfg.Policy = modelcache.LFU
		}
		var err error
		if store, err = modelcache.NewSharded(cfg.CacheSlots, cfg.Policy, 1); err != nil {
			return nil, err
		}
	}
	sizer := cfg.sizer
	if sizer == nil {
		sizer = newSizerRegistry()
	}
	sizer.add(b)
	store.SetSizer(sizer.size)
	retryBase := cfg.DegradedRetryFrames
	if retryBase <= 0 {
		retryBase = 4
	}
	retryCap := cfg.DegradedRetryCap
	if retryCap <= 0 {
		retryCap = 32
	}
	if retryCap < retryBase {
		retryCap = retryBase
	}
	r := &Runtime{
		bundle:      b,
		cache:       store,
		sizer:       sizer,
		dev:         cfg.Device,
		hysteresis:  cfg.SwitchHysteresis,
		retryBase:   retryBase,
		retryCap:    retryCap,
		prevDesired: -1,
		committed:   -1,
		candidate:   -1,
		met:         newFrameMetrics(cfg.metrics),
		counts:      newStreamCounts(cfg.metrics),
		tracer:      cfg.Tracer,
		streamID:    cfg.StreamID,
		stats: RunStats{
			DesiredCounts: make([]int, b.NumModels()),
			UsedCounts:    make([]int, b.NumModels()),
		},
	}
	switch {
	case cfg.Prefetcher != nil:
		r.pf = cfg.Prefetcher
	case cfg.Prefetch != nil:
		sched, err := prefetch.NewScheduler(*cfg.Prefetch, store, PrefetchModels(b))
		if err != nil {
			return nil, err
		}
		r.pf = sched
		r.ownsPF = true
	}
	return r, nil
}

// PrefetchModels lists the bundle's repertoire as prefetch.Model
// entries. Bytes is the paper-scale over-the-wire size (WeightBytes ×
// device.BytesScale) — the same size the device simulator charges for
// loads — so link transfer times and load latencies describe one model.
func PrefetchModels(b *Bundle) []prefetch.Model {
	out := make([]prefetch.Model, b.NumModels())
	for i, d := range b.Detectors {
		cost := device.ModelCost{WeightBytes: d.WeightBytes()}
		out[i] = prefetch.Model{Name: d.Name, Bytes: int64(cost.ScaledBytes())}
	}
	return out
}

// sizerRegistry is the byte-size map behind the cache's sizer func: each
// cache key (detector name) maps to the exact serialized size of its
// program (Weights.SizeBytes). It accumulates — registering a new bundle
// (a generation swap, a planner variant) merges its sizes instead of
// clobbering the old ones, so entries from earlier generations or other
// streams' variants keep correct byte accounting until they are evicted.
// Reads and writes can race between a swap and a background prefetch
// completion, hence the lock.
type sizerRegistry struct {
	mu    sync.RWMutex
	sizes map[string]int64
}

func newSizerRegistry() *sizerRegistry {
	return &sizerRegistry{sizes: make(map[string]int64)}
}

func (sr *sizerRegistry) add(b *Bundle) {
	sr.mu.Lock()
	for _, d := range b.Detectors {
		sr.sizes[d.Name] = d.SizeBytes()
	}
	sr.mu.Unlock()
}

func (sr *sizerRegistry) size(key string) int64 {
	sr.mu.RLock()
	defer sr.mu.RUnlock()
	return sr.sizes[key]
}

// Prefetcher returns the attached prefetch scheduler (nil when
// prefetching is disabled).
func (r *Runtime) Prefetcher() *prefetch.Scheduler { return r.pf }

// Close closes a prefetch scheduler the runtime built for itself
// (RuntimeConfig.Prefetch) and detaches it. A shared scheduler injected
// via RuntimeConfig.Prefetcher is only detached — its owner closes it.
// Safe to call on runtimes without prefetching.
func (r *Runtime) Close() {
	if r.ownsPF && r.pf != nil {
		r.pf.Close()
	}
	r.pf = nil
}

// Bundle returns the runtime's deployed bundle.
func (r *Runtime) Bundle() *Bundle { return r.bundle }

// SwapBundle deploys a new bundle on this runtime between frames — the
// rollout path for continual adaptation. The feature dimension must
// match (the stream keeps producing the same frames). Per-model stats
// slices grow to cover the larger repertoire and never shrink, so a
// rollback to a smaller bundle keeps the canary models' history; any
// selection state referring to a model index beyond the new repertoire
// (possible only on rollback) is reset so hysteresis re-seeds from the
// next frame. Not safe to call while a frame is in flight: callers
// swap between ProcessFrame / ProcessStreams calls.
func (r *Runtime) SwapBundle(b *Bundle) error {
	if err := b.Validate(); err != nil {
		return err
	}
	if b.FeatDim != r.bundle.FeatDim {
		return fmt.Errorf("core: swap bundle feat dim %d, runtime %d", b.FeatDim, r.bundle.FeatDim)
	}
	r.bundle = b
	// Merge the new generation's sizes and re-measure the store's
	// residents: keys shared between generations (a promote keeps
	// detector names) take the incoming sizes, other bundles' keys keep
	// theirs, so BytesUsed stays the exact sum over the resident set.
	r.sizer.add(b)
	r.cache.SetSizer(r.sizer.size)
	n := b.NumModels()
	for len(r.stats.DesiredCounts) < n {
		r.stats.DesiredCounts = append(r.stats.DesiredCounts, 0)
	}
	for len(r.stats.UsedCounts) < n {
		r.stats.UsedCounts = append(r.stats.UsedCounts, 0)
	}
	if r.prevDesired >= n {
		r.prevDesired = -1
	}
	if r.committed >= n {
		r.committed = -1
	}
	if r.candidate >= n {
		r.candidate, r.streak = -1, 0
	}
	return nil
}

// ProcessFrame executes the paper's per-frame pipeline: MSS ranks the
// repertoire with M_decision; CMD resolves the ranking against the LFU
// cache (on a miss the best cached model serves the frame while the cache
// updates); MI runs the chosen detector. Ground-truth metrics, cache
// behavior and simulated latency are recorded.
//
// The body is a composition of the stage methods below; MultiRuntime's
// tick pipeline runs the same stages, substituting batched
// embedding/score/detector computation for the per-frame calls.
func (r *Runtime) ProcessFrame(f *synth.Frame) (FrameResult, error) {
	if err := r.validateFrame(f); err != nil {
		return FrameResult{}, err
	}
	var res FrameResult
	seq := r.beginFrame()
	r.computeDecision(f)
	r.rankDecision(&res, r.bundle.NoveltyOfEmbedding(r.embBuf))
	rank := r.stageDecide(seq, &res)
	if err := r.stageResolve(f, seq, rank, &res); err != nil {
		return FrameResult{}, err
	}
	detectDur := r.detectAccount(f, &res)
	scores, frames, feats := [1]stats.PRF1{}, [1]*synth.Frame{f}, [1]tensor.Vector{r.featBuf}
	res.Metrics = r.bundle.Detectors[res.Used].ScoreBatch(scores[:], frames[:], feats[:])[0]
	r.finishDetect(seq, detectDur, &res)
	r.stageFinish(&res, true)
	return res, nil
}

// validateFrame rejects frames the bundle cannot process. Split from
// beginFrame so the tick pipeline can vet a whole tick's frames before
// touching any shared clocks.
func (r *Runtime) validateFrame(f *synth.Frame) error {
	if f == nil {
		return fmt.Errorf("core: nil frame")
	}
	if f.FeatDim() != r.bundle.FeatDim {
		return fmt.Errorf("core: frame feat dim %d, bundle %d", f.FeatDim(), r.bundle.FeatDim)
	}
	return nil
}

// beginFrame opens one frame: it reserves the tracer sequence, mints
// the frame's causal trace ID, and advances the shared link clock —
// one frame elapses per processed frame, so background transfers
// progress at the link's simulated rate.
func (r *Runtime) beginFrame() int64 {
	seq := r.tracer.NextSeq()
	if r.tracer != nil {
		r.frameTrace = telemetry.FrameTrace(r.streamID, seq)
	}
	if r.pf != nil {
		r.pf.Tick()
	}
	return seq
}

// computeDecision fills the embedding and score buffers for one frame —
// the per-frame (one-row) form. The tick pipeline replaces this with
// adoptDecision over rows of the tick's batch matrices; both produce
// bit-identical buffers.
func (r *Runtime) computeDecision(f *synth.Frame) {
	r.featBuf = synth.FrameFeatureInto(r.featBuf, f)
	r.embBuf = r.bundle.Encoder.EmbedFeatureInto(r.embBuf, r.featBuf)
	r.scoresBuf = r.bundle.Decision.ScoresInto(r.scoresBuf, r.embBuf)
}

// adoptDecision copies a batched embedding/score row pair into the
// runtime's decision buffers, after which rankDecision and stageDecide
// proceed exactly as in the per-frame path.
func (r *Runtime) adoptDecision(emb tensor.Vector, scores []float64) {
	if len(r.embBuf) != len(emb) {
		r.embBuf = tensor.NewVector(len(emb))
	}
	copy(r.embBuf, emb)
	if len(r.scoresBuf) != len(scores) {
		r.scoresBuf = make([]float64, len(scores))
	}
	copy(r.scoresBuf, scores)
}

// rankDecision is the stream-local arithmetic of MSS: it ranks the
// repertoire from the score buffer and scores the frame's confidence,
// runner-up and entropy into res, with the frame's novelty, which the
// caller scores from the embedding. It reads only the runtime's
// decision buffers (filled by computeDecision or adoptDecision), so the
// tick pipeline runs it on its workers.
func (r *Runtime) rankDecision(res *FrameResult, novelty float64) {
	scores := r.scoresBuf
	r.rankBuf = stats.RankDescendingInto(r.rankBuf, scores)
	rank := r.rankBuf
	res.Confidence = scores[rank[0]]
	res.Novelty = novelty
	res.Entropy = stats.NormalizedEntropy(scores)
	res.RunnerUp = rank[0]
	if len(rank) > 1 {
		res.RunnerUp = rank[1]
	}
}

// stageDecide is the rest of MSS, after rankDecision: it charges the
// decision cost to the device and applies hysteresis to the ranking.
// The scene embedding is computed once and shared by the decision head
// and the novelty score — they run as one simulated op, so they share
// the decide span.
func (r *Runtime) stageDecide(seq int64, res *FrameResult) []int {
	var decideDur time.Duration
	if r.dev != nil {
		decideDur = r.dev.Infer(r.bundle.DecisionCost())
		res.Latency += decideDur
	}
	rank := r.rankBuf
	res.Desired = r.applyHysteresis(rank[0])
	if res.Desired != rank[0] {
		// The smoothed choice leads the ranking used for fallback.
		moveToFront(rank, res.Desired)
	}
	r.recordStage(seq, telemetry.StageDecide, res.Desired, decideDur, false, false, nil)
	return rank
}

// stageResolve is CMD: it resolves the ranking against the cache and
// picks the model serving this frame (res.Used), charging fetch stalls
// and load latencies. It touches the shared cache and link, so the
// tick pipeline runs it sequentially in stream order.
func (r *Runtime) stageResolve(f *synth.Frame, seq int64, rank []int, res *FrameResult) error {
	// CMD: resolve against the cache. On a miss the frame is served by
	// the best model already resident (the paper's §V-B rule) while the
	// desired model loads in the background; only the very first frame,
	// with an empty cache, blocks on its load.
	coldStart := r.cache.Len() == 0
	desiredName := r.bundle.Detectors[res.Desired].Name
	resident := r.cache.Contains(desiredName)
	// The fallback set — which models were resident before this frame's
	// request — is read only on a miss. A resident desired model hits,
	// so the set is probed only when the desired model is absent.
	var preResident []bool
	if !coldStart && !resident {
		preResident = r.probeResident()
	}

	// With a prefetch scheduler the desired model's bytes must cross the
	// link before admission: a resident model (warm or prefetched) is
	// free, an absent one pays an on-demand fetch whose stall is charged
	// to this frame. The fetch routes through the scheduler so it
	// preempts any background prefetches (the miss path owns the link).
	//
	// When the fetch fails, the runtime enters degraded mode: the frame
	// is served by the best resident fallback below and subsequent
	// frames skip the link probe for an exponentially growing (capped)
	// window, so a dead link costs one stall per window instead of one
	// per frame. Any successful fetch — or the model turning up resident
	// via a background prefetch — exits degraded mode; the cap bounds
	// how long after link restoration the decided model returns.
	demandLoaded, demandFailed := false, false
	if r.pf != nil {
		if !resident {
			if r.degradedWait > 0 && !coldStart {
				r.degradedWait--
				demandFailed = true
				res.Degraded = true
				r.recordStage(seq, telemetry.StageFetch, res.Desired, 0, false, true, errDegradedBackoff)
			} else {
				r.counts.coldMisses.Inc()
				stall, ferr := r.pf.DemandFetch(context.Background(), r.pfOffset+res.Desired)
				r.recordStage(seq, telemetry.StageFetch, res.Desired, stall, false, ferr != nil, ferr)
				if ferr != nil {
					// Link unreachable: back off before the next probe.
					demandFailed = true
					res.Degraded = true
					r.noteDemandFailure()
				} else {
					demandLoaded = true
					r.degradedWait, r.degradedStreak = 0, 0
					res.FetchStall = stall
					res.Latency += stall
					r.stats.FetchStall += stall
					r.met.stall.Observe(stall.Seconds())
					if r.dev != nil {
						r.dev.Idle(stall)
					}
				}
			}
		} else {
			// The decided model is resident; whatever failures came
			// before, the runtime is serving decided again.
			r.degradedWait, r.degradedStreak = 0, 0
		}
	}
	if res.Degraded {
		r.counts.degraded.Inc()
	}
	var (
		hit     bool
		evicted []string
	)
	if demandFailed {
		if coldStart {
			return fmt.Errorf("core: model %q unreachable with an empty cache", desiredName)
		}
	} else {
		var err error
		hit, evicted, err = r.cache.Request(desiredName, 1)
		if err != nil {
			return fmt.Errorf("core: cache: %w", err)
		}
	}
	res.Hit = hit
	r.recordStage(seq, telemetry.StageCache, res.Desired, 0, hit, res.Degraded, nil)
	if r.dev != nil {
		cells := f.NumCells()
		for _, name := range evicted {
			if idx := r.modelIndex(name); idx >= 0 {
				r.dev.UnloadModel(r.bundle.ModelCost(idx, cells))
			}
		}
		if !hit && r.cache.Contains(desiredName) {
			cost := r.bundle.ModelCost(res.Desired, cells)
			if coldStart || demandLoaded {
				// A demand-fetched model serves this very frame, so its
				// device load is synchronous, like the cold-start load.
				res.Latency += r.dev.LoadModel(cost)
			} else {
				r.dev.LoadModelAsync(cost)
			}
		}
	}

	// Choose the model serving this frame: on a hit (or cold start, or
	// after a demand fetch already stalled the frame for the desired
	// bytes) the desired model; otherwise the highest-ranked model that
	// was resident before the background load began.
	res.Used = -1
	if hit || coldStart || demandLoaded {
		res.Used = res.Desired
	} else {
		if preResident == nil {
			// The desired model was resident at the probe, yet the request
			// missed: another user of a shared store evicted it in between.
			// The fallback set is what is resident now.
			preResident = r.probeResident()
			preResident[res.Desired] = false
		}
		for _, idx := range rank {
			if preResident[idx] {
				res.Used = idx
				break
			}
		}
	}
	if res.Used < 0 {
		// Unreachable: a warm cache always has a resident model.
		res.Used = res.Desired
	}
	if res.Used != res.Desired {
		r.counts.fallback.Inc()
	}
	return nil
}

// probeResident marks, in the runtime's reused buffer, which of the
// bundle's models the cache holds.
func (r *Runtime) probeResident() []bool {
	if len(r.residentBuf) != len(r.bundle.Detectors) {
		r.residentBuf = make([]bool, len(r.bundle.Detectors))
	}
	for i, det := range r.bundle.Detectors {
		r.residentBuf[i] = r.cache.Contains(det.Name)
	}
	return r.residentBuf
}

// detectAccount charges the serving model's inference cost to the
// device simulator — the accounting half of MI, kept apart from the
// actual detector run so the tick pipeline can account per stream while
// detecting per group.
func (r *Runtime) detectAccount(f *synth.Frame, res *FrameResult) time.Duration {
	var detectDur time.Duration
	if r.dev != nil {
		detectDur = r.dev.Infer(r.bundle.ModelCost(res.Used, f.NumCells()))
		res.Latency += detectDur
	}
	return detectDur
}

// finishDetect closes the frame's detect span, once its predictions
// have been scored into res.Metrics.
func (r *Runtime) finishDetect(seq int64, detectDur time.Duration, res *FrameResult) {
	r.recordStage(seq, telemetry.StageDetect, res.Used, detectDur, res.Used == res.Desired, res.Degraded, nil)
}

// stageFinish is the per-frame bookkeeping: switch detection, prefetch
// planning (skipped when plan is false — a shed-ladder frame), stats and
// metrics. It mutates per-stream state and the shared prefetch
// scheduler, so the tick pipeline runs it sequentially in stream order.
func (r *Runtime) stageFinish(res *FrameResult, plan bool) {
	res.Switched = r.prevDesired >= 0 && res.Desired != r.prevDesired
	if r.pf != nil {
		if res.Switched {
			r.pf.Observe(r.pfOffset+r.prevDesired, r.pfOffset+res.Desired)
		}
		if (res.Switched || r.counts.frames.Value() == 0) && plan {
			// Warm the cache toward the likeliest next switch targets.
			r.pf.Plan(r.pfOffset + res.Desired)
		}
	}
	if res.Switched {
		r.counts.switches.Inc()
		r.stats.SceneDurations = append(r.stats.SceneDurations, r.runLen)
		r.runLen = 1
	} else {
		r.runLen++
	}
	r.prevDesired = res.Desired
	r.counts.frames.Inc()
	r.met.latency.Observe(res.Latency.Seconds())
	r.stats.DesiredCounts[res.Desired]++
	r.stats.UsedCounts[res.Used]++
	r.stats.Detection = r.stats.Detection.Add(res.Metrics)
	r.stats.TotalLatency += res.Latency
}

// Stats returns a snapshot of the run, closing the open desired-model run
// into SceneDurations.
func (r *Runtime) Stats() RunStats {
	out := r.stats
	out.SceneDurations = append([]int(nil), r.stats.SceneDurations...)
	if r.runLen > 0 {
		out.SceneDurations = append(out.SceneDurations, r.runLen)
	}
	out.DesiredCounts = append([]int(nil), r.stats.DesiredCounts...)
	out.UsedCounts = append([]int(nil), r.stats.UsedCounts...)
	out.Cache = r.cache.Stats()
	out.MissRate = r.cache.MissRate()
	out.Detection = stats.ComputePRF1(r.stats.Detection.TP, r.stats.Detection.FP, r.stats.Detection.FN)
	c := &r.counts
	out.Frames, out.Switches = int(c.frames.Value()), int(c.switches.Value())
	out.ColdMisses, out.DegradedFrames = int(c.coldMisses.Value()), int(c.degraded.Value())
	out.FallbackServed = int(c.fallback.Value())
	out.ShedFrames, out.DowngradedServed = int(c.shed.Value()), int(c.downgraded.Value())
	out.QuarantinedFrames = int(c.quarantined.Value())
	return out
}

// noteDemandFailure advances the degraded-mode backoff: the wait before
// the next link probe doubles with every consecutive failure, capped at
// retryCap frames.
func (r *Runtime) noteDemandFailure() {
	r.degradedStreak++
	wait := r.retryBase
	for i := 1; i < r.degradedStreak && wait < r.retryCap; i++ {
		wait *= 2
	}
	if wait > r.retryCap {
		wait = r.retryCap
	}
	r.degradedWait = wait
}

// applyHysteresis smooths the per-frame top-1 choice: a challenger must
// win SwitchHysteresis consecutive frames to displace the committed
// model.
func (r *Runtime) applyHysteresis(top int) int {
	if r.hysteresis <= 1 {
		return top
	}
	if r.committed < 0 || top == r.committed {
		r.committed = top
		r.candidate, r.streak = -1, 0
		return r.committed
	}
	if top == r.candidate {
		r.streak++
	} else {
		r.candidate, r.streak = top, 1
	}
	if r.streak >= r.hysteresis {
		r.committed = top
		r.candidate, r.streak = -1, 0
	}
	return r.committed
}

// moveToFront moves idx to the front of rank in place, keeping the
// order of the other entries.
func moveToFront(rank []int, idx int) {
	for i, m := range rank {
		if m == idx {
			copy(rank[1:i+1], rank[:i])
			rank[0] = idx
			return
		}
	}
}

func (r *Runtime) modelIndex(name string) int {
	for i, d := range r.bundle.Detectors {
		if d.Name == name {
			return i
		}
	}
	return -1
}
