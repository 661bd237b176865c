// Package flight is the runtime's anomaly flight recorder: a bounded,
// race-clean ring of structured events (terminal frame verdicts,
// pressure-level transitions, breaker state changes, quarantines,
// rollbacks, checkpoint restores) kept per stream and globally, like a
// cockpit recorder that is always running but only read after
// something goes wrong.
//
// When an anomaly event lands — a rollback, a Critical pressure
// transition, a watchdog quarantine, a checkpoint reject — the
// recorder freezes the rings so the evidence cannot be overwritten and
// captures a diagnostic Dump: the retained events, the spans causally
// linked to the trigger's trace, a metrics snapshot, and the run
// configuration. The dump serializes to a JSON artifact (WriteDump)
// and serves over HTTP (Handler, mounted at /debug/flight).
//
// Like the telemetry package it builds on, flight is clock-injectable
// (simulated-time runs record deterministic timestamps) and nil-safe:
// every method on a nil *Recorder is a no-op, so instrumentation sites
// need no "is the recorder on?" branches.
package flight

import (
	"sync"
	"time"

	"anole/internal/telemetry"
)

// Kind classifies a flight-recorder event.
type Kind string

// Event kinds recorded by the runtime.
const (
	// KindVerdict is a terminal frame verdict other than a clean serve:
	// a frame downgraded, shed, or disposed while quarantined. Detail
	// carries the verdict name.
	KindVerdict Kind = "verdict"
	// KindPressure is a pressure-level transition; Detail carries the
	// new level's name and Value its numeric level.
	KindPressure Kind = "pressure"
	// KindBreaker is a circuit-breaker state change; Detail carries the
	// new state's name.
	KindBreaker Kind = "breaker"
	// KindQuarantine is a watchdog stream quarantine.
	KindQuarantine Kind = "quarantine"
	// KindRollback is a canary rollback; Detail carries the reason and
	// Value the generation rolled back to.
	KindRollback Kind = "rollback"
	// KindCheckpoint is a checkpoint restore outcome; Detail is
	// "restore" for a clean restore or "reject" for a checkpoint the
	// codec refused.
	KindCheckpoint Kind = "checkpoint"
	// KindSwap is a bundle swap landing on a stream; Value carries the
	// generation swapped in.
	KindSwap Kind = "swap"
)

// Checkpoint event details.
const (
	DetailRestore = "restore"
	DetailReject  = "reject"
)

// GlobalStream is the Stream value of events not tied to one stream
// (breaker changes, rollbacks, checkpoint events).
const GlobalStream = -1

// Event is one structured flight-recorder entry. Seq is recorder-wide
// monotone; At is the recorder clock at Record time. Stream is the
// stream the event concerns (GlobalStream for fleet-wide events).
// Trace links the event to the causal trace it belongs to, so a dump
// can pull the spans around it.
type Event struct {
	Seq    int64         `json:"seq"`
	At     time.Duration `json:"atNs"`
	Stream int           `json:"stream"`
	Kind   Kind          `json:"kind"`
	Detail string        `json:"detail,omitempty"`
	Trace  string        `json:"trace,omitempty"`
	Value  float64       `json:"value,omitempty"`
}

// Anomaly reports whether an event is an anomaly trigger: a rollback,
// a transition to Critical pressure, a watchdog quarantine, or a
// checkpoint reject. This is the default trip predicate; Config.TripOn
// overrides it.
func Anomaly(ev Event) bool {
	switch ev.Kind {
	case KindRollback, KindQuarantine:
		return true
	case KindPressure:
		return ev.Detail == "critical"
	case KindCheckpoint:
		return ev.Detail == DetailReject
	}
	return false
}

// Config tunes a Recorder. Zero values select the documented defaults.
type Config struct {
	// GlobalCap bounds the global event ring (default 1024).
	GlobalCap int
	// StreamCap bounds each per-stream ring (default 128).
	StreamCap int
	// Now is the recorder clock (default: wall time since NewRecorder).
	// Inject the simulation clock for deterministic event timestamps.
	Now func() time.Duration
	// TripOn overrides the anomaly predicate (default Anomaly).
	TripOn func(Event) bool
	// Spans, when non-nil, is the tracer a dump pulls causally linked
	// spans from.
	Spans *telemetry.Tracer
	// Gather, when non-nil, supplies the metrics snapshot embedded in a
	// dump.
	Gather telemetry.Gatherer
	// Info is the run-configuration echo embedded verbatim in every
	// dump (flag values, seeds, stream counts).
	Info map[string]string
	// OnDump, when non-nil, is invoked synchronously with each captured
	// dump — the hook anole-run uses to write the JSON artifact the
	// moment the anomaly happens rather than at exit.
	OnDump func(*Dump)
	// Metrics, when non-nil, is the registry the anole_flight_* series
	// are registered on. Nil keeps them in a private registry; Dropped
	// reads the same counter either way.
	Metrics *telemetry.Registry
}

func (c *Config) withDefaults() Config {
	out := *c
	if out.GlobalCap <= 0 {
		out.GlobalCap = 1024
	}
	if out.StreamCap <= 0 {
		out.StreamCap = 128
	}
	if out.Now == nil {
		start := time.Now()
		out.Now = func() time.Duration { return time.Since(start) }
	}
	if out.TripOn == nil {
		out.TripOn = Anomaly
	}
	return out
}

// ring is a bounded event ring: the most recent cap events retained,
// oldest overwritten. Callers hold the Recorder lock.
type ring struct {
	buf   []Event
	total int64
}

func (r *ring) push(ev Event, cap_ int) {
	if len(r.buf) < cap_ {
		r.buf = append(r.buf, ev)
	} else {
		r.buf[r.total%int64(cap_)] = ev
	}
	r.total++
}

func (r *ring) snapshot(cap_ int) []Event {
	if r.total <= int64(len(r.buf)) {
		return append([]Event(nil), r.buf...)
	}
	head := int(r.total % int64(cap_))
	out := make([]Event, 0, len(r.buf))
	out = append(out, r.buf[head:]...)
	out = append(out, r.buf[:head]...)
	return out
}

// Recorder is the flight recorder. All methods are safe for concurrent
// use; a nil *Recorder ignores every call.
type Recorder struct {
	cfg Config

	mu      sync.Mutex
	global  ring
	streams map[int]*ring
	seq     int64
	frozen  bool
	dump    *Dump

	// Telemetry handles, on cfg.Metrics or a private registry.
	cEvents  *telemetry.Counter
	cDropped *telemetry.Counter
	cTrips   *telemetry.Counter
	gFrozen  *telemetry.Gauge
}

// NewRecorder builds a Recorder from cfg (zero-value fields get
// defaults).
func NewRecorder(cfg Config) *Recorder {
	r := &Recorder{cfg: cfg.withDefaults(), streams: make(map[int]*ring)}
	reg := r.cfg.Metrics
	if reg == nil {
		reg = telemetry.NewRegistry()
	}
	r.cEvents = reg.Counter("anole_flight_events_total", "flight-recorder events recorded")
	r.cDropped = reg.Counter("anole_flight_dropped_total", "events dropped while the recorder was frozen")
	r.cTrips = reg.Counter("anole_flight_trips_total", "anomaly trips that froze the recorder and captured a dump")
	r.gFrozen = reg.Gauge("anole_flight_frozen", "1 while the recorder is frozen on an anomaly, else 0")
	return r
}

// Record appends one event, stamping its Seq and At. While the
// recorder is frozen the event is counted and dropped, so the evidence
// around the anomaly that froze it survives. If the event satisfies
// the trip predicate, the recorder captures a Dump (including this
// event), freezes, and invokes OnDump. Nil-safe.
func (r *Recorder) Record(ev Event) {
	if r == nil {
		return
	}
	r.mu.Lock()
	if r.frozen {
		r.mu.Unlock()
		r.cDropped.Inc()
		return
	}
	r.seq++
	ev.Seq = r.seq
	ev.At = r.cfg.Now()
	r.global.push(ev, r.cfg.GlobalCap)
	if ev.Stream != GlobalStream {
		sr := r.streams[ev.Stream]
		if sr == nil {
			sr = &ring{}
			r.streams[ev.Stream] = sr
		}
		sr.push(ev, r.cfg.StreamCap)
	}
	trip := r.cfg.TripOn(ev)
	var dump *Dump
	if trip {
		dump = r.buildDumpLocked(string(ev.Kind)+":"+ev.Detail, ev)
		r.dump = dump
		r.frozen = true
	}
	r.mu.Unlock()

	r.cEvents.Inc()
	if trip {
		r.cTrips.Inc()
		r.gFrozen.Set(1)
		if r.cfg.OnDump != nil {
			r.cfg.OnDump(dump)
		}
	}
}

// Thaw unfreezes the recorder so it records again. The captured dump
// stays available via LastDump until the next trip replaces it.
// Nil-safe.
func (r *Recorder) Thaw() {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.frozen = false
	r.mu.Unlock()
	r.gFrozen.Set(0)
}

// Frozen reports whether the recorder is frozen on an anomaly.
// Nil-safe.
func (r *Recorder) Frozen() bool {
	if r == nil {
		return false
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.frozen
}

// Dropped reports how many events were dropped while frozen. Nil-safe.
func (r *Recorder) Dropped() int64 {
	if r == nil {
		return 0
	}
	return r.cDropped.Value()
}

// Snapshot returns the retained global events oldest-first (nil for a
// nil or empty recorder).
func (r *Recorder) Snapshot() []Event {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.global.snapshot(r.cfg.GlobalCap)
}

// StreamSnapshot returns one stream's retained events oldest-first.
func (r *Recorder) StreamSnapshot(stream int) []Event {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	sr := r.streams[stream]
	if sr == nil {
		return nil
	}
	return sr.snapshot(r.cfg.StreamCap)
}

// LastDump returns the most recent captured dump (nil when no anomaly
// has tripped the recorder). Nil-safe.
func (r *Recorder) LastDump() *Dump {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.dump
}

// buildDumpLocked assembles the diagnostic bundle under the Recorder
// lock. Span and metric snapshots take their own locks but never the
// Recorder's, so the ordering is safe.
func (r *Recorder) buildDumpLocked(reason string, trigger Event) *Dump {
	d := &Dump{
		Version: DumpVersion,
		Reason:  reason,
		At:      trigger.At,
		Trigger: trigger,
		Events:  r.global.snapshot(r.cfg.GlobalCap),
		Config:  r.cfg.Info,
	}
	if sr := r.streams[trigger.Stream]; sr != nil && trigger.Stream != GlobalStream {
		d.StreamEvents = sr.snapshot(r.cfg.StreamCap)
	}
	if t := r.cfg.Spans; t != nil {
		if trigger.Trace != "" {
			// The spans causally linked to the trigger: every hop of its
			// trace, device and cloud side.
			d.Spans = t.SnapshotFiltered(trigger.Trace, -1, 0)
		} else {
			d.Spans = t.SnapshotFiltered("", -1, dumpSpanLimit)
		}
	}
	if g := r.cfg.Gather; g != nil {
		d.Metrics = telemetry.Map(g)
	}
	return d
}

// dumpSpanLimit caps the recent-span window embedded in a dump whose
// trigger carries no trace.
const dumpSpanLimit = 256
