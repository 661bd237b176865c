package telemetry

import (
	"strconv"
	"sync"
	"time"
)

// Span is one stage of the per-frame pipeline: scene-encode+decision →
// cache-lookup → fetch/prefetch → detect. Seq identifies the frame
// (monotone across all streams sharing a Tracer), Stream the stream
// that processed it. Start is the Tracer clock at the moment the span
// was recorded; Dur is the stage's (simulated or measured) duration.
// Durations marshal as nanoseconds.
type Span struct {
	Seq    int64  `json:"seq"`
	Stream int    `json:"stream"`
	Stage  string `json:"stage"`
	// Model is the model index the stage concerned (-1 when the stage
	// has no single model, e.g. an HTTP request span).
	Model    int           `json:"model"`
	Start    time.Duration `json:"startNs"`
	Dur      time.Duration `json:"durNs"`
	Hit      bool          `json:"hit,omitempty"`
	Degraded bool          `json:"degraded,omitempty"`
	Err      string        `json:"err,omitempty"`
	// Trace is the causal trace ID the span belongs to: every span of
	// one frame's pipeline shares the frame's trace, and every hop of an
	// adaptation journey (drift report → cluster → retrain → publish →
	// canary → swap) shares the drift report's. Empty for untraced
	// spans.
	Trace string `json:"trace,omitempty"`
	// Event optionally names a causal milestone inside the trace (e.g.
	// "report", "publish", "canary_start", "rollback", "swap"), letting
	// a trace query reconstruct the journey without parsing Err.
	Event string `json:"event,omitempty"`
}

// Pipeline stage names recorded by core.Runtime, in frame order. The
// scene encoder and the decision head run as one simulated operation,
// so they share the decide stage.
const (
	StageDecide = "decide"
	StageCache  = "cache"
	StageFetch  = "fetch"
	StageDetect = "detect"
)

// TraceHeader is the HTTP header carrying a causal trace ID across the
// device↔cloud boundary: repo fetches and drift-report submissions set
// it, and InstrumentHandler copies it into the server-side request
// span, so one trace ID stitches both ends of every wire hop.
const TraceHeader = "X-Anole-Trace"

// FrameTrace mints the deterministic trace ID assigned at frame
// admission: "f<stream>.<seq>". Seq is globally monotone across
// streams sharing a Tracer, so the ID is unique within a run and
// reproducible across seeded reruns. It runs on every served frame with
// a Tracer attached, so it builds the ID in a stack buffer and allocates
// only the returned string.
func FrameTrace(stream int, seq int64) string {
	var buf [48]byte // 'f', '.' and two 20-byte int64s
	b := append(buf[:0], 'f')
	b = strconv.AppendInt(b, int64(stream), 10)
	b = append(b, '.')
	b = strconv.AppendInt(b, seq, 10)
	return string(b)
}

// DriftTrace mints the deterministic trace ID assigned at drift-report
// creation: "d<stream>.g<generation>.<n>" where n counts the
// detector's emitted reports. The same ID then travels with the report
// to the cloud and back down with the generation it triggers, so the
// full device→cloud→device adaptation journey shares one trace.
func DriftTrace(stream int, generation uint64, n int) string {
	return "d" + strconv.Itoa(stream) + ".g" + strconv.FormatUint(generation, 10) + "." + strconv.Itoa(n)
}

// Tracer records spans into a bounded ring buffer: the most recent
// Cap() spans are retained, older ones overwritten. The clock is
// injectable so simulated-time runs (prefetch.LinkFetcher.Now) produce
// deterministic span timestamps; the default clock is wall time since
// construction. All methods are safe for concurrent use; a nil *Tracer
// ignores Record and reads as empty.
type Tracer struct {
	mu    sync.Mutex
	now   func() time.Duration
	ring  []Span
	total int64
	seq   int64
}

// DefaultSpanBuffer is the ring capacity NewTracer selects for cap <= 0.
const DefaultSpanBuffer = 2048

// NewTracer builds a tracer retaining the last cap spans (<= 0 selects
// DefaultSpanBuffer). A nil now selects wall time since construction.
func NewTracer(cap int, now func() time.Duration) *Tracer {
	if cap <= 0 {
		cap = DefaultSpanBuffer
	}
	if now == nil {
		start := time.Now()
		now = func() time.Duration { return time.Since(start) }
	}
	return &Tracer{now: now, ring: make([]Span, 0, cap)}
}

// NextSeq reserves and returns the next frame sequence number (frames
// across all streams sharing the tracer draw from one sequence).
func (t *Tracer) NextSeq() int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.seq++
	return t.seq
}

// Record stamps s.Start from the tracer clock and appends s to the
// ring, overwriting the oldest span when full. Nil tracers drop the
// span.
func (t *Tracer) Record(s Span) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	s.Start = t.now()
	if len(t.ring) < cap(t.ring) {
		t.ring = append(t.ring, s)
	} else {
		t.ring[t.total%int64(cap(t.ring))] = s
	}
	t.total++
}

// Total returns how many spans have ever been recorded, including
// overwritten ones (0 for nil).
func (t *Tracer) Total() int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.total
}

// Snapshot returns the retained spans oldest-first (nil for a nil or
// empty tracer).
func (t *Tracer) Snapshot() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.total <= int64(len(t.ring)) {
		return append([]Span(nil), t.ring...)
	}
	// The ring has wrapped: the oldest retained span sits at the next
	// write position.
	head := int(t.total % int64(cap(t.ring)))
	out := make([]Span, 0, len(t.ring))
	out = append(out, t.ring[head:]...)
	out = append(out, t.ring[:head]...)
	return out
}

// SnapshotFiltered returns the retained spans oldest-first, keeping
// only those matching a non-empty trace ID and/or a non-negative
// stream filter, then capping the result to the most recent limit
// spans (limit <= 0 means no cap). Nil tracers read as empty.
func (t *Tracer) SnapshotFiltered(trace string, stream, limit int) []Span {
	spans := t.Snapshot()
	if trace != "" || stream >= 0 {
		kept := spans[:0]
		for _, s := range spans {
			if trace != "" && s.Trace != trace {
				continue
			}
			if stream >= 0 && s.Stream != stream {
				continue
			}
			kept = append(kept, s)
		}
		spans = kept
	}
	if limit > 0 && len(spans) > limit {
		spans = spans[len(spans)-limit:]
	}
	return spans
}
