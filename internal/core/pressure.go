package core

import (
	"fmt"
	"time"

	"anole/internal/device"
	"anole/internal/flight"
	"anole/internal/pressure"
	"anole/internal/synth"
	"anole/internal/telemetry"
)

// FrameVerdict is the terminal disposition of one offered frame. Every
// frame a MultiRuntime is offered receives exactly one verdict — under
// overload frames degrade or drop, they never wait unboundedly.
// VerdictServed is the zero value, so code paths that never touch the
// pressure machinery produce bit-identical FrameResults to builds
// before it existed.
type FrameVerdict int

const (
	// VerdictServed: the full pipeline ran and the decided (or
	// fallback) model served the frame — the only verdict that exists
	// when pressure is disabled.
	VerdictServed FrameVerdict = iota
	// VerdictDowngraded: the shed ladder served the frame with the
	// smallest resident model, paying no link or admission work.
	VerdictDowngraded
	// VerdictShed: the shed ladder dropped the frame at admission; no
	// decision, cache, or detector work was done.
	VerdictShed
	// VerdictQuarantined: the frame's stream was quarantined by the
	// watchdog (stalled or erroring), and the frame was disposed
	// without processing so the rest of the fleet keeps its tick rate.
	VerdictQuarantined
)

func (v FrameVerdict) String() string {
	switch v {
	case VerdictServed:
		return "served"
	case VerdictDowngraded:
		return "downgraded"
	case VerdictShed:
		return "shed"
	case VerdictQuarantined:
		return "quarantined"
	default:
		return "unknown"
	}
}

// PressureConfig tunes the overload-survival machinery; every field's
// zero value selects the documented default, so &PressureConfig{}
// enables the monitor and watchdog with defaults (the deadline
// controller additionally needs MultiRuntimeConfig.Deadline).
type PressureConfig struct {
	// Monitor tunes the pressure-level thresholds and hysteresis.
	Monitor pressure.MonitorConfig
}

// criticalWatermark is the cache byte-watermark fraction applied while
// the monitor reads Critical; Nominal and Elevated restore 1.0.
const criticalWatermark = 0.75

// pressureState is the MultiRuntime's attachment of the pressure
// machinery: one monitor, one fleet-level deadline controller, one
// watchdog, and the per-tick scratch that feeds them.
type pressureState struct {
	mon      *pressure.Monitor
	ctl      *pressure.Controller
	wd       *pressure.Watchdog
	deadline time.Duration

	// latScale normalizes each stream's served latency for the shared
	// deadline controller: the ratio of the fleet's fastest mode
	// throughput to stream i's (≥ 1). Dividing a slow device's latency
	// by its scale gives every stream a deadline proportional to its
	// hardware — a nano is not "overloaded" merely for being a nano.
	// Nil (uniform fleet, or no fleet) means no normalization.
	latScale []float64

	// Per-tick scratch, sized to the stream count.
	active   []bool
	progress []bool
	// probeRR round-robins the ShedDrop probe stream so the controller
	// keeps observing served-frame sojourn while the fleet drops.
	probeRR int
}

// newPressureState wires the machinery for a MultiRuntime. Enabled by
// a Deadline, a PressureConfig, or both; returns nil when neither is
// set so the zero-config runtime carries no pressure code at all.
func newPressureState(streams int, deadline time.Duration, cfg *PressureConfig, reg *telemetry.Registry, onLevel func(pressure.Level)) *pressureState {
	if deadline <= 0 && cfg == nil {
		return nil
	}
	pc := PressureConfig{}
	if cfg != nil {
		pc = *cfg
	}
	if pc.Monitor.Metrics == nil {
		pc.Monitor.Metrics = reg
	}
	ps := &pressureState{
		mon:      pressure.NewMonitor(pc.Monitor),
		deadline: deadline,
		active:   make([]bool, streams),
		progress: make([]bool, streams),
	}
	ps.wd = pressure.NewWatchdog(streams, pressure.WatchdogConfig{}, ps.mon.Counters().Quarantines)
	if deadline > 0 {
		ps.ctl = pressure.NewController(pressure.ControllerConfig{Target: deadline})
	}
	if onLevel != nil {
		ps.mon.Subscribe(onLevel)
	}
	return ps
}

// fleetLatencyScales derives the controller's per-stream latency
// normalization from a device fleet: scale[i] is the ratio of the
// fleet's fastest mode throughput to stream i's. Returns nil for a
// uniform fleet (or none), so homogeneous runs keep the controller's
// historical raw-latency behavior bit for bit.
func fleetLatencyScales(fleet device.Fleet) []float64 {
	if len(fleet) == 0 {
		return nil
	}
	gflops := make([]float64, len(fleet))
	fastest := 0.0
	uniform := true
	for i, a := range fleet {
		gflops[i] = a.Profile.Modes[a.Mode].GFLOPS
		if gflops[i] > fastest {
			fastest = gflops[i]
		}
		if gflops[i] != gflops[0] {
			uniform = false
		}
	}
	if uniform || fastest <= 0 {
		return nil
	}
	scales := make([]float64, len(fleet))
	for i := range scales {
		scales[i] = fastest / gflops[i]
	}
	return scales
}

// disposedResult is the terminal FrameResult for a frame that never
// entered the pipeline (shed or quarantined).
func disposedResult(v FrameVerdict) FrameResult {
	return FrameResult{Desired: -1, Used: -1, RunnerUp: -1, Verdict: v}
}

// shedFrame drops one frame at admission. The link clock still
// advances — frame time passes whether or not the device serves — but
// no decision, cache, or detector work runs and no selection state
// moves.
func (r *Runtime) shedFrame() {
	if r.pf != nil {
		r.pf.Tick()
	}
	r.counts.shed.Inc()
}

// resolveDowngrade is the rung-2 replacement for stageResolve: serve
// the decided model if it happens to be resident, otherwise the
// smallest resident model (by weight bytes — the cheapest thing the
// device can run), paying no demand fetch and no admission eviction.
// Returns false when nothing is resident (cold start), in which case
// the caller falls back to the full resolve path.
func (r *Runtime) resolveDowngrade(f *synth.Frame, seq int64, res *FrameResult) bool {
	desiredName := r.bundle.Detectors[res.Desired].Name
	if r.cache.Contains(desiredName) {
		hit, _, err := r.cache.Request(desiredName, 1)
		if err != nil {
			return false
		}
		res.Hit = hit
		res.Used = res.Desired
		r.recordStage(seq, telemetry.StageCache, res.Desired, 0, hit, false, nil)
		return true
	}
	best := -1
	var bestBytes int64
	for i, d := range r.bundle.Detectors {
		if !r.cache.Contains(d.Name) {
			continue
		}
		if wb := d.WeightBytes(); best < 0 || wb < bestBytes {
			best, bestBytes = i, wb
		}
	}
	if best < 0 {
		return false
	}
	// Request on a resident key is a pure hit: it touches the entry
	// (LFU honesty) and keeps the Hits+Misses==Lookups invariant.
	if _, _, err := r.cache.Request(r.bundle.Detectors[best].Name, 1); err != nil {
		return false
	}
	res.Used = best
	res.Verdict = VerdictDowngraded
	r.counts.downgraded.Inc()
	r.counts.fallback.Inc()
	r.recordStage(seq, telemetry.StageCache, best, 0, true, false, nil)
	return true
}

// disposeQuarantined is the terminal result for a frame of a
// quarantined stream, disposed without processing.
func (m *MultiRuntime) disposeQuarantined(i int) FrameResult {
	m.streams[i].counts.quarantined.Inc()
	return disposedResult(VerdictQuarantined)
}

// failFrame converts a frame error into a stream quarantine: the stream
// cannot make progress (e.g. cold start with an unreachable
// repository), so the watchdog parks it and the rest of the fleet keeps
// being served; the watchdog releases it for a probe later.
func (m *MultiRuntime) failFrame(i int) FrameResult {
	if m.press.wd.Quarantine(i) {
		m.flt.Record(flight.Event{Stream: i, Kind: flight.KindQuarantine, Detail: "error"})
	}
	return m.disposeQuarantined(i)
}

// observePressureTick folds one completed tick into the controller,
// watchdog, and monitor. Runs on the event-loop goroutine after every
// tick.
func (m *MultiRuntime) observePressureTick(tick int, ready []int, results [][]FrameResult) {
	ps := m.press
	for i := range ps.active {
		ps.active[i] = false
		ps.progress[i] = false
	}
	var worst time.Duration
	served := false
	for _, i := range ready {
		res := results[i][tick]
		switch res.Verdict {
		case VerdictServed, VerdictDowngraded:
			served = true
			ps.active[i] = true
			ps.progress[i] = true
			lat := res.Latency
			if ps.latScale != nil {
				lat = time.Duration(float64(lat) / ps.latScale[i])
			}
			if lat > worst {
				worst = lat
			}
		default:
			// Shed frames are fleet policy and quarantined frames are
			// already sanctioned; neither counts toward stall credit.
		}
	}
	ps.ctl.ObserveTick(worst, served)
	for _, qi := range ps.wd.ObserveTick(ps.active, ps.progress) {
		m.flt.Record(flight.Event{Stream: qi, Kind: flight.KindQuarantine, Detail: "stall"})
	}
	var heat float64
	for _, d := range m.devs {
		if d != nil && d.Heat() > heat {
			heat = d.Heat()
		}
	}
	var residency float64
	if bc := m.cache.ByteCapacity(); bc > 0 {
		residency = float64(m.cache.BytesUsed()) / float64(bc)
	}
	ps.mon.Update(pressure.Sample{
		Heat:      heat,
		Residency: residency,
		Sojourn:   ps.ctl.Sojourn(worst),
	})
}

// PressureStats is the fleet-level overload summary for reports.
type PressureStats struct {
	// Level and Rung are the monitor and shed ladder's final state.
	Level string `json:"level"`
	Rung  string `json:"rung"`
	// ShedFrames / DowngradedServed / QuarantinedFrames sum the
	// per-stream verdict counters; Quarantines counts the watchdog's
	// quarantine entries (a stream can be quarantined more than once).
	// Each is read from the counters whose totals the registry exports
	// as anole_pressure_*_total.
	ShedFrames        int `json:"shedFrames"`
	DowngradedServed  int `json:"downgradedServed"`
	QuarantinedFrames int `json:"quarantinedFrames"`
	Quarantines       int `json:"quarantines"`
}

// PressureStats returns the overload summary, or nil when the pressure
// machinery is disabled.
func (m *MultiRuntime) PressureStats() *PressureStats {
	if m.press == nil {
		return nil
	}
	out := &PressureStats{
		Level:       m.press.mon.Level().String(),
		Rung:        m.press.ctl.Rung().String(),
		Quarantines: m.press.wd.Quarantines(),
	}
	for _, rt := range m.streams {
		out.ShedFrames += int(rt.counts.shed.Value())
		out.DowngradedServed += int(rt.counts.downgraded.Value())
		out.QuarantinedFrames += int(rt.counts.quarantined.Value())
	}
	return out
}

// PressureMonitor exposes the monitor so external subscribers (the
// adapt loop's uplink gate) can watch the same level the fleet reacts
// to. Nil when the machinery is disabled.
func (m *MultiRuntime) PressureMonitor() *pressure.Monitor {
	if m.press == nil {
		return nil
	}
	return m.press.mon
}

// CaptureCheckpoint snapshots the MultiRuntime's share of the warm
// state worth surviving a restart: the Markov transition counts and
// the cache residency manifest with LFU frequencies. Generation
// defaults to 1; an adapt.Loop overwrites it (and adds drift windows)
// via its own CaptureCheckpoint. Call only between ProcessStreams
// calls.
func (m *MultiRuntime) CaptureCheckpoint() *pressure.Checkpoint {
	c := &pressure.Checkpoint{Generation: 1}
	if m.pf != nil {
		n, alpha, obs, counts, rowSum := m.pf.Markov().State()
		c.Markov = &pressure.MarkovState{N: n, Alpha: alpha, Obs: obs, Counts: counts, RowSum: rowSum}
	}
	for _, key := range m.cache.Keys() {
		c.Cache = append(c.Cache, pressure.CacheEntry{Key: key, Freq: m.cache.Freq(key)})
	}
	if m.fleet != nil {
		c.Fleet = make([]string, len(m.fleet))
		for i, a := range m.fleet {
			c.Fleet[i] = a.Class
		}
	}
	return c
}

// RestoreCheckpoint warm-starts the MultiRuntime from a checkpoint:
// Markov counts are restored into the scheduler's transition model and
// the residency manifest is re-pinned via Warm (model bytes persist on
// device flash across a process death, so residency costs no link
// traffic to restore). Manifest keys the current bundle does not
// define are skipped — a checkpoint can never admit a model the
// deployed generation does not carry. Returns how many models were
// warmed. Call only between ProcessStreams calls, before traffic.
func (m *MultiRuntime) RestoreCheckpoint(c *pressure.Checkpoint) (warmed int, err error) {
	if c == nil {
		return 0, fmt.Errorf("core: nil checkpoint")
	}
	// A checkpoint captured on one fleet layout must not warm another:
	// stream indices would map to different hardware. Checkpoints without
	// a fleet section (v1, or single-device runs) restore anywhere.
	if len(c.Fleet) > 0 && m.fleet != nil {
		if len(c.Fleet) != len(m.fleet) {
			return 0, fmt.Errorf("core: checkpoint fleet has %d streams, runtime %d", len(c.Fleet), len(m.fleet))
		}
		for i, class := range c.Fleet {
			if class != m.fleet[i].Class {
				return 0, fmt.Errorf("core: checkpoint stream %d class %q, runtime %q", i, class, m.fleet[i].Class)
			}
		}
	}
	if c.Markov != nil && m.pf != nil {
		if err := m.pf.Markov().RestoreState(c.Markov.N, c.Markov.Obs, c.Markov.Counts, c.Markov.RowSum); err != nil {
			return 0, fmt.Errorf("core: restore markov: %w", err)
		}
	}
	known := make(map[string]bool, m.bundle.NumModels())
	for _, d := range m.bundle.Detectors {
		known[d.Name] = true
	}
	if m.plan != nil {
		for _, v := range m.plan.variants {
			for _, d := range v.bundle.Detectors {
				known[d.Name] = true
			}
		}
	}
	for _, e := range c.Cache {
		if !known[e.Key] {
			continue
		}
		if m.cache.Warm(e.Key, 1, e.Freq) {
			warmed++
		}
	}
	return warmed, nil
}
