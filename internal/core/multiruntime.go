package core

import (
	"fmt"
	goruntime "runtime"
	"time"

	"anole/internal/device"
	"anole/internal/flight"
	"anole/internal/modelcache"
	"anole/internal/prefetch"
	"anole/internal/pressure"
	"anole/internal/slo"
	"anole/internal/stats"
	"anole/internal/synth"
	"anole/internal/telemetry"
)

// MultiRuntimeConfig controls the multi-stream serving loop.
type MultiRuntimeConfig struct {
	// Streams is the number of independent frame streams (simulated
	// dash cams / UAVs) multiplexed over one shared model cache
	// (default 1).
	Streams int
	// CacheSlots is the shared cache capacity in compressed-model units
	// (default 5), split across CacheShards shards.
	CacheSlots int
	// Policy is the eviction policy (default LFU).
	Policy modelcache.Policy
	// CacheShards is the shard count of the shared cache (≤0 selects
	// min(Streams, CacheSlots), so a single stream gets a single shard
	// and reproduces Runtime's cache behavior exactly).
	CacheShards int
	// SwitchHysteresis is applied per stream (see
	// RuntimeConfig.SwitchHysteresis).
	SwitchHysteresis int
	// Workers bounds how many goroutines run a tick's stream-local work
	// — the decide blocks (frame features, scene encoder and decision
	// head, ranking) and the detect slices — the ProcessStreams
	// goroutine among them (≤0 selects GOMAXPROCS; always capped at
	// Streams). Each chunk starts its helpers once; the ProcessStreams
	// goroutine runs the stages that touch shared state in stream order
	// as the blocks and slices they wait on complete, and runs blocks
	// and slices itself in between. At 1 it runs every block and slice.
	Workers int
	// Fleet assigns each stream its own device profile and power mode:
	// Fleet[i] is stream i's device, so a mixed fleet (Jetsons, laptops,
	// phone-class CPUs) runs under one event loop with per-stream
	// latency, energy, memory and thermal accounting. Its length must
	// equal Streams; device.UniformFleet gives every stream one profile.
	// Empty means no device simulation.
	Fleet device.Fleet
	// Plan, when non-nil, enables OODIn-style per-device planning
	// (requires a fleet): the runtime builds quantized variants of the
	// bundle and solves, per stream, for the variant whose size fits the
	// device's cache byte capacity and whose estimated latency meets the
	// budget, re-planning when the pressure monitor changes level (a
	// throttled device may no longer sustain full precision). Mutually
	// exclusive with external bundle swaps (SwapStreamBundle /
	// SwapAllBundles return an error while planning owns the fleet).
	Plan *PlanConfig
	// Prefetch, when non-nil, builds ONE shared prefetch.Scheduler over
	// the shared cache (the Fetcher field must be set) and attaches it
	// to every stream: model bytes travel the device↔cloud link, absent
	// desired models stall their frame on an on-demand fetch, and
	// predicted switch targets are prefetched in the background. Every
	// processed frame — across all streams — advances the shared link
	// clock one tick, so the link services one frame-time of transfer
	// per frame of aggregate work, and prefetches complete inside that
	// tick. Call Close to cancel the scheduler's pending transfers.
	Prefetch *prefetch.Config
	// Metrics, when non-nil, is the shared telemetry registry: the
	// sharded cache registers its anole_modelcache_* counters on it, the
	// prefetch scheduler its anole_prefetch_* counters (unless the
	// Prefetch config names its own registry), the pressure monitor its
	// anole_pressure_* series, and every stream counts its events on
	// children of the anole_core_*_total counters, so the registry's
	// values are the fleet totals of the per-stream RunStats.
	Metrics *telemetry.Registry
	// Tracer, when non-nil, is shared by every stream: each frame's
	// pipeline-stage spans land in the same bounded ring, tagged with
	// the stream index.
	Tracer *telemetry.Tracer
	// DegradedRetryFrames and DegradedRetryCap are applied per stream
	// (see the RuntimeConfig fields of the same names).
	DegradedRetryFrames int
	DegradedRetryCap    int
	// Batch is not read: every tick runs the one batched pipeline (see
	// ProcessStreams), whatever its value.
	//
	// Deprecated: has no effect; kept so existing configurations compile.
	Batch bool
	// MaxBatch caps how many frames one pipeline chunk stages (default
	// 256); larger admitted sets are processed in consecutive chunks,
	// bounding the batch working set however many streams are
	// configured.
	MaxBatch int
	// Deadline, when positive, is the per-frame latency target driving
	// the shed ladder: the deadline controller watches each tick's
	// worst served-frame latency against it and escalates/relaxes the
	// ladder CoDel-style. Setting it enables the pressure machinery.
	Deadline time.Duration
	// Thermal, when non-nil, attaches this thermal model to every
	// stream's device simulator (requires Fleet), so sustained load
	// derates per-frame compute through device.ThrottleFactor and heat
	// feeds the pressure monitor.
	Thermal *device.ThermalModel
	// Pressure tunes the overload machinery (monitor thresholds,
	// controller persistence, watchdog, critical watermark). A non-nil
	// value enables it even without a Deadline — the monitor and
	// watchdog run, the shed ladder stays at ShedNone.
	Pressure *PressureConfig
	// Flight, when non-nil, receives the fleet's anomaly-relevant
	// events: non-served terminal frame verdicts, pressure-level
	// transitions, quarantines and bundle swaps. Anomalies freeze the
	// recorder and capture a diagnostic dump (see internal/flight).
	Flight *flight.Recorder
	// SLO, when non-nil, is fed every offered frame's terminal outcome
	// (latency, served, degraded) so the engine can compute windowed
	// objectives and burn rates (see internal/slo).
	SLO *slo.Engine
}

// MultiRuntime serves N independent frame streams over one shared
// thread-safe model cache. Every stream's Runtime runs against the SAME
// bundle: the models inside it are frozen nn.Weights programs with no
// execution state, so N streams hold exactly one resident copy of the
// encoder, decision head and all detectors regardless of N. Each stream
// keeps private hysteresis/decision state and working buffers; the
// cache — the resident-model budget of the shared accelerator — is the
// only structure streams contend on. Construct with NewMultiRuntime,
// drive with ProcessStreams.
type MultiRuntime struct {
	bundle  *Bundle
	cache   *modelcache.Sharded
	streams []*Runtime
	devs    []*device.Simulator
	workers int
	// pf is the shared prefetch scheduler (nil without Prefetch); the
	// MultiRuntime owns it and Close closes it.
	pf *prefetch.Scheduler
	// maxBatch and the reusable working set drive the tick pipeline (see
	// tick.go).
	maxBatch int
	bstate   *batchState
	bmet     batchMetrics
	// fleet is the per-stream device assignment (empty without device
	// simulation); plan is the per-device variant selector state (nil
	// unless PlanConfig enabled it — see plan.go).
	fleet device.Fleet
	plan  *planState
	// press is the overload-survival machinery (nil unless a Deadline
	// or PressureConfig enabled it — see pressure.go).
	press *pressureState
	// flt and slo are the observability attachments (both optional,
	// both nil-safe): the flight recorder sees anomaly-relevant events,
	// the SLO engine sees every terminal frame outcome.
	flt *flight.Recorder
	slo *slo.Engine
}

// modelRegistrar is implemented by fetchers that learn new models after
// construction (prefetch.LinkFetcher.AddModels).
type modelRegistrar interface {
	AddModels([]prefetch.Model) error
}

// NewMultiRuntime validates the bundle once, builds the shared sharded
// cache, and prepares one runtime per stream, all sharing the bundle.
func NewMultiRuntime(b *Bundle, cfg MultiRuntimeConfig) (*MultiRuntime, error) {
	if err := b.Validate(); err != nil {
		return nil, err
	}
	// Packing the centroids for the novelty kernel is set-up work: do it
	// here, not in the first tick (once per bundle; a no-op after that).
	b.packedCentroids()
	if cfg.Streams <= 0 {
		cfg.Streams = 1
	}
	if cfg.CacheSlots <= 0 {
		cfg.CacheSlots = 5
	}
	if cfg.Policy == 0 {
		cfg.Policy = modelcache.LFU
	}
	shards := cfg.CacheShards
	if shards <= 0 {
		shards = cfg.Streams
		if shards > cfg.CacheSlots {
			shards = cfg.CacheSlots
		}
	}
	cache, err := modelcache.NewShardedMetrics(cfg.CacheSlots, cfg.Policy, shards, cfg.Metrics)
	if err != nil {
		return nil, err
	}
	workers := cfg.Workers
	if workers <= 0 {
		workers = goruntime.GOMAXPROCS(0)
	}
	if workers > cfg.Streams {
		workers = cfg.Streams
	}
	maxBatch := cfg.MaxBatch
	if maxBatch <= 0 {
		maxBatch = 256
	}
	fleet := cfg.Fleet
	if len(fleet) > 0 {
		if len(fleet) != cfg.Streams {
			return nil, fmt.Errorf("core: fleet has %d assignments for %d streams", len(fleet), cfg.Streams)
		}
		if err := fleet.Validate(); err != nil {
			return nil, fmt.Errorf("core: %w", err)
		}
	}
	if cfg.Plan != nil && len(fleet) == 0 {
		return nil, fmt.Errorf("core: per-device planning needs a device fleet (set Fleet)")
	}
	m := &MultiRuntime{
		bundle:   b,
		cache:    cache,
		streams:  make([]*Runtime, cfg.Streams),
		devs:     make([]*device.Simulator, cfg.Streams),
		workers:  workers,
		maxBatch: maxBatch,
		bmet:     newBatchMetrics(cfg.Metrics),
		fleet:    fleet,
		flt:      cfg.Flight,
		slo:      cfg.SLO,
	}
	m.bstate = newBatchState(m, workers)
	// One byte-size registry covers the fleet bundle and every planner
	// variant, so streams on different variants share correct byte
	// accounting in the shared cache.
	sizer := newSizerRegistry()
	sizer.add(b)
	pfModels := PrefetchModels(b)
	var variantModels []prefetch.Model
	if cfg.Plan != nil {
		ps, err := newPlanState(b, cfg.Plan, cfg.Streams, cfg.Metrics)
		if err != nil {
			return nil, err
		}
		m.plan = ps
		for _, v := range ps.variants[1:] {
			sizer.add(v.bundle)
			variantModels = append(variantModels, PrefetchModels(v.bundle)...)
		}
		pfModels = append(pfModels, variantModels...)
	}
	if cfg.Prefetch != nil {
		pcfg := *cfg.Prefetch
		if pcfg.Metrics == nil {
			pcfg.Metrics = cfg.Metrics
		}
		// The fetcher was built for the base repertoire (PrefetchModels
		// of b); the planner's variant models must become fetchable too.
		if reg, ok := pcfg.Fetcher.(modelRegistrar); ok && len(variantModels) > 0 {
			if err := reg.AddModels(variantModels); err != nil {
				return nil, err
			}
		}
		sched, err := prefetch.NewScheduler(pcfg, cache, pfModels)
		if err != nil {
			return nil, err
		}
		m.pf = sched
	}
	if len(fleet) > 0 {
		// Satellite memory budget: GPU memory bounds the cache in bytes,
		// not just slots. The sizer measures serialized model bytes while
		// the device charges paper-scale bytes (WeightBytes × BytesScale),
		// so the budget converts real GPU bytes back down to sizer units.
		// The shared cache is sized to the roomiest device; tighter
		// per-device ceilings are enforced by the planner, which never
		// assigns a stream a variant exceeding its own device's capacity.
		if byteCap := int64(fleet.MaxGPUMemoryMB() * float64(1<<20) / device.BytesScale); byteCap > 0 {
			cache.SetByteCapacity(byteCap)
		}
	}
	cfg.Metrics.Gauge("anole_core_streams", "configured frame streams").Set(float64(cfg.Streams))
	cfg.Metrics.Gauge("anole_core_workers", "goroutines running a tick's stream-local work").Set(float64(workers))
	m.press = newPressureState(cfg.Streams, cfg.Deadline, cfg.Pressure, cfg.Metrics, m.pressureReact())
	if m.press != nil {
		m.press.latScale = fleetLatencyScales(fleet)
	}
	for i := range m.streams {
		var dev *device.Simulator
		if len(fleet) > 0 {
			var err error
			dev, err = device.NewSimulatorAtMode(fleet[i].Profile, fleet[i].Mode)
			if err != nil {
				return nil, fmt.Errorf("core: stream %d: %w", i, err)
			}
			if cfg.Thermal != nil {
				dev.EnableThermal(cfg.Thermal)
			}
		}
		rt, err := NewRuntime(b, RuntimeConfig{
			Store:               cache,
			Device:              dev,
			SwitchHysteresis:    cfg.SwitchHysteresis,
			Prefetcher:          m.pf,
			metrics:             cfg.Metrics,
			Tracer:              cfg.Tracer,
			StreamID:            i,
			sizer:               sizer,
			DegradedRetryFrames: cfg.DegradedRetryFrames,
			DegradedRetryCap:    cfg.DegradedRetryCap,
		})
		if err != nil {
			return nil, fmt.Errorf("core: stream %d: %w", i, err)
		}
		if m.press != nil {
			rt.counts.bindPressure(m.press.mon)
		}
		m.streams[i] = rt
		m.devs[i] = dev
		if m.slo != nil && len(fleet) > 0 {
			m.slo.SetStreamClass(int32(i), fleet[i].Class)
		}
	}
	if m.plan != nil {
		if err := m.applyInitialPlan(); err != nil {
			return nil, err
		}
	}
	return m, nil
}

// pressureReact builds the monitor subscriber that turns level changes
// into fleet reactions: Elevated pauses background prefetch plans (the
// link and cache budget go to demand traffic), Critical tightens the
// cache's byte watermark and sweeps unpinned entries down to it.
// Dropping back below each threshold undoes the reaction.
func (m *MultiRuntime) pressureReact() func(pressure.Level) {
	return func(lv pressure.Level) {
		m.flt.Record(flight.Event{
			Stream: flight.GlobalStream,
			Kind:   flight.KindPressure,
			Detail: lv.String(),
			Value:  float64(lv),
		})
		if m.pf != nil {
			m.pf.SetPaused(lv >= pressure.Elevated)
		}
		if lv >= pressure.Critical {
			m.cache.SetWatermark(criticalWatermark)
			evicted := m.cache.SweepToWatermark()
			m.press.mon.NoteSweep(len(evicted))
		} else {
			m.cache.SetWatermark(1)
		}
		// A level transition means the thermal/residency picture changed:
		// re-run per-device planning so throttled devices can step down
		// to a cheaper variant (and recovered ones step back up).
		m.replanStreams()
	}
}

// NumStreams returns the configured stream count.
func (m *MultiRuntime) NumStreams() int { return len(m.streams) }

// Workers returns how many goroutines run a tick's stream-local work.
func (m *MultiRuntime) Workers() int { return m.workers }

// Bundle returns the shared, read-only bundle every stream runs on.
func (m *MultiRuntime) Bundle() *Bundle { return m.bundle }

// StreamBundle returns the bundle stream i runs on — always the same
// pointer Bundle returns, exposed so tests can pin the single-resident-
// copy invariant.
func (m *MultiRuntime) StreamBundle(i int) *Bundle { return m.streams[i].Bundle() }

// Cache returns the shared sharded model cache.
func (m *MultiRuntime) Cache() *modelcache.Sharded { return m.cache }

// SwapStreamBundle deploys b on stream i only — the canary step of a
// rollout. The pipeline groups each tick's frames by the bundle they
// run, so a canary batches within its own group. Call only between
// ProcessStreams calls. Not available while per-device planning owns
// the fleet's bundles.
func (m *MultiRuntime) SwapStreamBundle(i int, b *Bundle) error {
	if m.plan != nil {
		return fmt.Errorf("core: bundle swaps are not available with per-device planning enabled")
	}
	if i < 0 || i >= len(m.streams) {
		return fmt.Errorf("core: swap on stream %d of %d", i, len(m.streams))
	}
	if err := m.streams[i].SwapBundle(b); err != nil {
		return err
	}
	m.bstate.releaseUnused(m.streams)
	m.flt.Record(flight.Event{Stream: i, Kind: flight.KindSwap, Detail: "canary"})
	return nil
}

// SwapAllBundles deploys b on every stream and adopts it as the shared
// fleet bundle — the promote (or rollback) step of a rollout. Call only
// between ProcessStreams calls. Not available while per-device planning
// owns the fleet's bundles.
func (m *MultiRuntime) SwapAllBundles(b *Bundle) error {
	if m.plan != nil {
		return fmt.Errorf("core: bundle swaps are not available with per-device planning enabled")
	}
	if err := b.Validate(); err != nil {
		return err
	}
	for i, rt := range m.streams {
		if err := rt.SwapBundle(b); err != nil {
			return fmt.Errorf("core: stream %d: %w", i, err)
		}
	}
	m.bstate.releaseAll()
	m.bundle = b
	m.flt.Record(flight.Event{Stream: flight.GlobalStream, Kind: flight.KindSwap, Detail: "fleet"})
	return nil
}

// PurgeStaleModels evicts every cached model that no live bundle
// references and returns how many were removed — the old-generation
// cleanup run after a promotion (never during a canary, when two
// generations legitimately coexist). "Live" covers the fleet bundle,
// every stream's current bundle, and — under per-device planning — every
// variant a replan could still select. Pinned or mid-prefetch entries
// are removed like any other: nothing live references them.
func (m *MultiRuntime) PurgeStaleModels() int {
	keep := make(map[string]bool, m.bundle.NumModels())
	for _, d := range m.bundle.Detectors {
		keep[d.Name] = true
	}
	for _, rt := range m.streams {
		for _, d := range rt.Bundle().Detectors {
			keep[d.Name] = true
		}
	}
	if m.plan != nil {
		for _, v := range m.plan.variants {
			for _, d := range v.bundle.Detectors {
				keep[d.Name] = true
			}
		}
	}
	purged := 0
	for _, key := range m.cache.Keys() {
		if !keep[key] && m.cache.Remove(key) {
			purged++
		}
	}
	return purged
}

// Prefetcher returns the shared prefetch scheduler (nil when
// prefetching is disabled).
func (m *MultiRuntime) Prefetcher() *prefetch.Scheduler { return m.pf }

// Close closes the shared prefetch scheduler, cancelling its pending
// transfers, detaches it from every stream, and drops the batch
// working set's per-bundle groups.
// Safe without prefetching; call after the last ProcessStreams.
func (m *MultiRuntime) Close() {
	for _, rt := range m.streams {
		rt.Close()
	}
	if m.pf != nil {
		m.pf.Close()
		m.pf = nil
	}
	m.bstate.releaseAll()
}

// StreamDevice returns stream i's device simulator (nil without a
// fleet). Read it only after ProcessStreams returns.
func (m *MultiRuntime) StreamDevice(i int) *device.Simulator { return m.devs[i] }

// Fleet returns the per-stream device assignment (nil without device
// simulation). The returned slice is the runtime's own — do not mutate.
func (m *MultiRuntime) Fleet() device.Fleet { return m.fleet }

// StreamObserver is invoked once per offered frame, with its terminal
// result. Every call is serialized on the ProcessStreams goroutine in
// (tick, stream) order, so an observer needs no synchronization.
// Returning an error aborts the run.
type StreamObserver func(stream int, f *synth.Frame, res FrameResult) error

// ProcessStreams drives streams[i] through stream i's runtime as an
// event loop over frame ticks: at tick t every stream with a t-th frame
// is ready, and the loop runs exactly one frame per ready stream before
// advancing — streams stay within one frame of each other (tick-fair),
// however unequal their lengths.
//
// Every tick, whatever the stream count, fleet or shed rung, runs one
// pipeline (see tick.go): admit (dispose quarantined streams, validate
// frames, assign each frame its shed rung) → decide (MSS as one matrix
// batch per bundle) → resolve (CMD against the shared cache, one frame
// at a time in ascending stream order, so the run is deterministic) →
// detect (MI over slices of consecutively resolved frames, each on its
// serving detector, with scoring) → finish (spans and bookkeeping in
// stream order). The decide blocks and detect slices fan out over
// Workers goroutines alongside the ordered resolve and finish; the
// result does not depend on their number.
//
// len(streams) must equal NumStreams. It returns the per-stream frame
// results. With the pressure machinery on, a frame error quarantines
// its stream and the rest of the fleet keeps being served; without it,
// the first frame error is returned and the results are discarded, as
// is an observer error. ProcessStreams must not be called concurrently
// with itself or with Stats.
func (m *MultiRuntime) ProcessStreams(streams [][]*synth.Frame, obs StreamObserver) ([][]FrameResult, error) {
	if len(streams) != len(m.streams) {
		return nil, fmt.Errorf("core: %d frame streams for %d runtime streams", len(streams), len(m.streams))
	}
	// Every stream's results share one backing array.
	total, maxLen := 0, 0
	for i := range streams {
		total += len(streams[i])
		maxLen = max(maxLen, len(streams[i]))
	}
	backing := make([]FrameResult, total)
	results := make([][]FrameResult, len(streams))
	for i := range streams {
		results[i], backing = backing[:len(streams[i]):len(streams[i])], backing[len(streams[i]):]
	}

	for tick := 0; tick < maxLen; tick++ {
		// The ready list reuses the previous tick's backing array, which
		// processTick keeps in batchState for the fan-out stages.
		ready := m.bstate.ready[:0]
		for i := range streams {
			if tick < len(streams[i]) {
				ready = append(ready, i)
			}
		}
		m.bmet.occupancy.Set(float64(len(ready)) / float64(len(streams)))
		if err := m.processTick(tick, ready, streams, results, obs); err != nil {
			return nil, err
		}
		if m.press != nil {
			m.observePressureTick(tick, ready, results)
		}
		if m.slo != nil || m.flt != nil {
			m.observeTickOutcomes(tick, ready, results)
		}
	}
	return results, nil
}

// observeTickOutcomes feeds one completed tick's terminal frame
// outcomes to the SLO engine and flight recorder. Served and
// downgraded frames count as served for the availability objective;
// every non-served verdict lands in the flight ring (downgraded frames
// carry their frame trace — shed and quarantined frames never entered
// the pipeline, so they have none).
func (m *MultiRuntime) observeTickOutcomes(tick int, ready []int, results [][]FrameResult) {
	for _, i := range ready {
		res := results[i][tick]
		served := res.Verdict == VerdictServed || res.Verdict == VerdictDowngraded
		m.slo.ObserveFrame(i, res.Latency, served, res.Degraded || res.Verdict == VerdictDowngraded)
		if m.flt != nil && res.Verdict != VerdictServed {
			var trace string
			if res.Verdict == VerdictDowngraded {
				trace = m.streams[i].frameTrace
			}
			m.flt.Record(flight.Event{
				Stream: i,
				Kind:   flight.KindVerdict,
				Detail: res.Verdict.String(),
				Trace:  trace,
			})
		}
	}
}

// StreamStats returns stream i's RunStats. Its Cache and MissRate
// fields reflect the shared cache (all streams), while the frame,
// switch, detection and latency fields are the stream's own.
func (m *MultiRuntime) StreamStats(i int) RunStats { return m.streams[i].Stats() }

// Stats merges every stream's RunStats into the aggregate view: frame,
// switch, per-model and detection counters are summed (detection P/R/F1
// recomputed from the summed counts), scene durations concatenated in
// stream order, and the cache counters taken once from the shared
// sharded cache.
func (m *MultiRuntime) Stats() RunStats {
	// During a canary (and after a rollback) streams can disagree on
	// repertoire size; per-model slices are sized to the largest any
	// stream has ever seen.
	n := m.bundle.NumModels()
	for _, rt := range m.streams {
		if k := len(rt.stats.DesiredCounts); k > n {
			n = k
		}
	}
	agg := RunStats{
		DesiredCounts: make([]int, n),
		UsedCounts:    make([]int, n),
	}
	for _, rt := range m.streams {
		s := rt.Stats()
		agg.Frames += s.Frames
		agg.Switches += s.Switches
		agg.SceneDurations = append(agg.SceneDurations, s.SceneDurations...)
		for j := range s.DesiredCounts {
			agg.DesiredCounts[j] += s.DesiredCounts[j]
			agg.UsedCounts[j] += s.UsedCounts[j]
		}
		agg.Detection.TP += s.Detection.TP
		agg.Detection.FP += s.Detection.FP
		agg.Detection.FN += s.Detection.FN
		agg.TotalLatency += s.TotalLatency
		agg.ColdMisses += s.ColdMisses
		agg.FetchStall += s.FetchStall
		agg.DegradedFrames += s.DegradedFrames
		agg.FallbackServed += s.FallbackServed
		agg.ShedFrames += s.ShedFrames
		agg.DowngradedServed += s.DowngradedServed
		agg.QuarantinedFrames += s.QuarantinedFrames
	}
	agg.Detection = stats.ComputePRF1(agg.Detection.TP, agg.Detection.FP, agg.Detection.FN)
	agg.Cache = m.cache.Stats()
	agg.MissRate = m.cache.MissRate()
	return agg
}

// SimulatedMakespan returns the largest per-stream simulated latency:
// streams progress concurrently on their own devices, so this — not the
// sum — is the simulated wall-clock to drain all streams. Aggregate
// simulated throughput is Stats().Frames divided by this duration.
func (m *MultiRuntime) SimulatedMakespan() time.Duration {
	var max time.Duration
	for _, rt := range m.streams {
		if s := rt.Stats(); s.TotalLatency > max {
			max = s.TotalLatency
		}
	}
	return max
}
