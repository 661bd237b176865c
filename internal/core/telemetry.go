package core

import (
	"errors"
	"time"

	"anole/internal/pressure"
	"anole/internal/telemetry"
)

// errDegradedBackoff labels fetch spans for frames that skipped the link
// probe because the runtime was waiting out a failed fetch's backoff
// window.
var errDegradedBackoff = errors.New("degraded backoff: link probe skipped")

// frameMetrics are the runtime's distribution handles, registered under
// anole_core_* names: the simulated frame-latency and link-stall
// histograms, which carry what RunStats' sums do not. Both are nil (no-op)
// without a registry. Counted events are not here: they live in
// streamCounts.
type frameMetrics struct {
	latency *telemetry.Histogram
	stall   *telemetry.Histogram
}

// newFrameMetrics binds the handle set on reg; a nil reg yields nil
// (no-op) handles.
func newFrameMetrics(reg *telemetry.Registry) frameMetrics {
	return frameMetrics{
		latency: reg.Histogram("anole_core_frame_latency_seconds", "simulated end-to-end per-frame latency", nil),
		stall:   reg.Histogram("anole_core_fetch_stall_seconds", "per-frame stall waiting on the device-cloud link", nil),
	}
}

// streamCounts is a stream's ledger of counted events, the one record
// RunStats and the registry both read. Each counter is a Child of the
// fleet total: an anole_core_*_total counter on the registry (standalone
// without one), or, once bindPressure runs, the pressure monitor's
// verdict counter. One Inc per event therefore updates the stream's
// StreamStats and every exported total, and N streams sharing a registry
// export the sum of their counts.
type streamCounts struct {
	frames, switches, coldMisses, degraded, fallback *telemetry.Counter
	// Verdict counts of the overload machinery (see RunStats).
	shed, downgraded, quarantined *telemetry.Counter
}

func newStreamCounts(reg *telemetry.Registry) streamCounts {
	return streamCounts{
		frames:      reg.Counter("anole_core_frames_total", "frames processed across streams").Child(),
		switches:    reg.Counter("anole_core_switches_total", "desired-model switches (scene changes)").Child(),
		coldMisses:  reg.Counter("anole_core_cold_misses_total", "frames whose desired model had to cross the link").Child(),
		degraded:    reg.Counter("anole_core_degraded_frames_total", "frames served stale in degraded mode").Child(),
		fallback:    reg.Counter("anole_core_fallback_served_total", "frames served by a model other than the decided one").Child(),
		shed:        new(telemetry.Counter),
		downgraded:  new(telemetry.Counter),
		quarantined: new(telemetry.Counter),
	}
}

// bindPressure makes the verdict counts children of the monitor's
// anole_pressure_* counters, which the monitor keeps owning. Call before
// the stream serves.
func (c *streamCounts) bindPressure(mon *pressure.Monitor) {
	pc := mon.Counters()
	c.shed = pc.ShedDropped.Child()
	c.downgraded = pc.ShedDowngrade.Child()
	c.quarantined = pc.QuarantinedFrames.Child()
}

// recordStage appends one pipeline-stage span for the current frame; a
// nil tracer drops it. seq is the frame's tracer sequence (0 when
// tracing is off).
func (r *Runtime) recordStage(seq int64, stage string, model int, dur time.Duration, hit, degraded bool, err error) {
	if r.tracer == nil {
		return
	}
	s := telemetry.Span{
		Seq:      seq,
		Stream:   r.streamID,
		Stage:    stage,
		Model:    model,
		Trace:    r.frameTrace,
		Dur:      dur,
		Hit:      hit,
		Degraded: degraded,
	}
	if err != nil {
		s.Err = err.Error()
	}
	r.tracer.Record(s)
}
