// Package pressure provides overload-survival machinery for the
// multi-stream runtime: a resource-pressure monitor that folds thermal
// state, cache residency, and queue delay into a discrete pressure
// level; a CoDel-style deadline controller driving a shed ladder; a
// per-stream watchdog that quarantines stalled streams; and a
// versioned, CRC-checked checkpoint codec for crash/restart recovery.
//
// The package deliberately imports nothing from core, prefetch,
// modelcache, or adapt — those layers import pressure and convert
// their own state into the plain types defined here. That keeps the
// dependency graph acyclic and the checkpoint format free of any
// package-internal representation.
package pressure

import (
	"sync"
	"sync/atomic"

	"anole/internal/telemetry"
)

// Level is a discrete resource-pressure reading. Levels order:
// Nominal < Elevated < Critical.
type Level int

const (
	// Nominal means every signal is inside its envelope; no
	// degradation is active.
	Nominal Level = iota
	// Elevated means at least one signal crossed its soft threshold:
	// background work (prefetch planning) pauses, serving continues
	// untouched.
	Elevated
	// Critical means at least one signal crossed its hard threshold:
	// cache eviction watermarks tighten and non-essential uplink
	// traffic (drift reports) defers.
	Critical
)

func (l Level) String() string {
	switch l {
	case Nominal:
		return "nominal"
	case Elevated:
		return "elevated"
	case Critical:
		return "critical"
	default:
		return "unknown"
	}
}

// Sample is one per-tick observation fed to the Monitor.
type Sample struct {
	// Heat is the hottest stream device's thermal state: 1.0 is the
	// sustained-power envelope, values above derate throughput.
	Heat float64
	// Residency is resident cache bytes over the device byte capacity
	// (0 when no byte capacity is configured).
	Residency float64
	// Sojourn is the tick's worst served-frame latency over the frame
	// deadline (0 when no deadline is configured). Values above 1 mean
	// the tick backlog is growing faster than frames drain.
	Sojourn float64
}

// MonitorConfig tunes the pressure thresholds. Zero values select the
// documented defaults.
type MonitorConfig struct {
	// HeatElevated / HeatCritical are thermal-state thresholds.
	// Defaults: 1.0 (at envelope) and 1.5.
	HeatElevated float64
	HeatCritical float64
	// ResidencyElevated / ResidencyCritical are cache-fill fractions.
	// Defaults: 0.85 and 0.95.
	ResidencyElevated float64
	ResidencyCritical float64
	// SojournElevated / SojournCritical are latency/deadline ratios.
	// Defaults: 1.0 and 4.0.
	SojournElevated float64
	SojournCritical float64
	// HoldTicks is how many consecutive calmer observations must
	// accumulate before the level steps down one notch. Escalation is
	// immediate; relaxation is damped so the level does not flap at a
	// threshold boundary. Default: 8.
	HoldTicks int
	// Metrics, when non-nil, is the registry the anole_pressure_* series
	// are registered on. Nil keeps them in a private registry; the
	// counters exist either way.
	Metrics *telemetry.Registry
}

func (c *MonitorConfig) withDefaults() MonitorConfig {
	out := *c
	if out.HeatElevated == 0 {
		out.HeatElevated = 1.0
	}
	if out.HeatCritical == 0 {
		out.HeatCritical = 1.5
	}
	if out.ResidencyElevated == 0 {
		out.ResidencyElevated = 0.85
	}
	if out.ResidencyCritical == 0 {
		out.ResidencyCritical = 0.95
	}
	if out.SojournElevated == 0 {
		out.SojournElevated = 1.0
	}
	if out.SojournCritical == 0 {
		out.SojournCritical = 4.0
	}
	if out.HoldTicks <= 0 {
		out.HoldTicks = 8
	}
	return out
}

// Monitor folds per-tick resource samples into a discrete pressure
// level with damped downward transitions, and fans level changes out
// to subscribers. All methods are safe for concurrent use; a nil
// *Monitor is a no-op whose Level is always Nominal.
type Monitor struct {
	cfg MonitorConfig

	mu    sync.Mutex
	level Level
	calm  int // consecutive observations strictly below the current level
	subs  []func(Level)

	levelAtomic atomic.Int64 // lock-free Level() reads

	// Telemetry handles, on cfg.Metrics or a private registry.
	gLevel       *telemetry.Gauge
	cTransitions *telemetry.Counter
	c            Counters
}

// Counters are the monitor's anole_pressure_* event counters. Each event
// has one writer: NoteSweep counts what only the monitor sees, and a
// component that keeps its own count of an event (a stream's shed,
// downgraded and quarantined frames, the watchdog's quarantines, the
// adaptation loop's deferred reports) counts it on a Child of the
// matching counter, so its one Inc lands in both.
type Counters struct {
	ShedPrefetch, ShedDowngrade, ShedDropped *telemetry.Counter
	Quarantines, QuarantinedFrames           *telemetry.Counter
	Sweeps, SweepEvicted, DeferredReports    *telemetry.Counter
}

// NewMonitor builds a Monitor from cfg (zero-value fields get
// defaults).
func NewMonitor(cfg MonitorConfig) *Monitor {
	m := &Monitor{cfg: cfg.withDefaults()}
	reg := m.cfg.Metrics
	if reg == nil {
		reg = telemetry.NewRegistry()
	}
	m.gLevel = reg.Gauge("anole_pressure_level",
		"Current pressure level: 0 nominal, 1 elevated, 2 critical.")
	m.cTransitions = reg.Counter("anole_pressure_transitions_total",
		"Pressure level transitions (either direction).")
	m.c = Counters{
		ShedPrefetch: reg.Counter("anole_pressure_shed_prefetch_total",
			"Frames served with prefetch planning suppressed (ladder rung 1)."),
		ShedDowngrade: reg.Counter("anole_pressure_shed_downgrade_total",
			"Frames downgraded to the cheapest resident model (ladder rung 2)."),
		ShedDropped: reg.Counter("anole_pressure_shed_dropped_total",
			"Frames dropped with a shed verdict (ladder rung 3)."),
		Quarantines: reg.Counter("anole_pressure_quarantines_total",
			"Streams quarantined by the watchdog."),
		QuarantinedFrames: reg.Counter("anole_pressure_quarantined_frames_total",
			"Frames disposed with a quarantined verdict."),
		Sweeps: reg.Counter("anole_pressure_watermark_sweeps_total",
			"Critical-pressure cache watermark sweeps."),
		SweepEvicted: reg.Counter("anole_pressure_watermark_evicted_total",
			"Cache entries evicted by watermark sweeps."),
		DeferredReports: reg.Counter("anole_pressure_deferred_reports_total",
			"Drift report shipments deferred under critical pressure."),
	}
	return m
}

// Subscribe registers fn to be called synchronously (under no Monitor
// lock) whenever the level changes. Subscribers registered before the
// first Update see every transition.
func (m *Monitor) Subscribe(fn func(Level)) {
	if m == nil || fn == nil {
		return
	}
	m.mu.Lock()
	m.subs = append(m.subs, fn)
	m.mu.Unlock()
}

// Level returns the current pressure level. Nil-safe.
func (m *Monitor) Level() Level {
	if m == nil {
		return Nominal
	}
	return Level(m.levelAtomic.Load())
}

// classify maps a sample to its instantaneous level, before damping.
func (m *Monitor) classify(s Sample) Level {
	c := &m.cfg
	if s.Heat >= c.HeatCritical || s.Residency >= c.ResidencyCritical || s.Sojourn >= c.SojournCritical {
		return Critical
	}
	if s.Heat >= c.HeatElevated || s.Residency >= c.ResidencyElevated || s.Sojourn >= c.SojournElevated {
		return Elevated
	}
	return Nominal
}

// Update folds one observation into the level. Escalation applies
// immediately; de-escalation requires HoldTicks consecutive
// observations strictly below the current level and then steps down
// one notch at a time. Returns the (possibly new) level. Nil-safe.
func (m *Monitor) Update(s Sample) Level {
	if m == nil {
		return Nominal
	}
	raw := m.classify(s)

	m.mu.Lock()
	prev := m.level
	next := prev
	switch {
	case raw > prev:
		next = raw
		m.calm = 0
	case raw < prev:
		m.calm++
		if m.calm >= m.cfg.HoldTicks {
			next = prev - 1
			m.calm = 0
		}
	default:
		m.calm = 0
	}
	var subs []func(Level)
	if next != prev {
		m.level = next
		m.levelAtomic.Store(int64(next))
		subs = append(subs, m.subs...)
	}
	m.mu.Unlock()

	if next != prev {
		m.gLevel.Set(float64(next))
		m.cTransitions.Inc()
		for _, fn := range subs {
			fn(next)
		}
	}
	return next
}

// Counters returns the monitor's event counters (all nil, so no-ops,
// for a nil Monitor). Safe from any goroutine: the counters are atomic
// and the Monitor lock is not taken.
func (m *Monitor) Counters() Counters {
	if m == nil {
		return Counters{}
	}
	return m.c
}

// NoteSweep counts one watermark sweep that evicted n entries. Nil-safe.
func (m *Monitor) NoteSweep(n int) {
	c := m.Counters()
	c.Sweeps.Inc()
	c.SweepEvicted.Add(int64(n))
}
