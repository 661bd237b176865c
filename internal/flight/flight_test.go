package flight

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"anole/internal/telemetry"
)

// tickClock is a deterministic recorder clock advancing 1ms per call.
func tickClock() func() time.Duration {
	var n time.Duration
	return func() time.Duration {
		n += time.Millisecond
		return n
	}
}

func TestRecorderRingBoundsAndOrder(t *testing.T) {
	r := NewRecorder(Config{GlobalCap: 4, StreamCap: 2, Now: tickClock(),
		TripOn: func(Event) bool { return false }})
	for i := 0; i < 10; i++ {
		r.Record(Event{Stream: i % 2, Kind: KindVerdict, Detail: fmt.Sprintf("v%d", i)})
	}
	got := r.Snapshot()
	if len(got) != 4 {
		t.Fatalf("global ring kept %d events, want 4", len(got))
	}
	for i, ev := range got {
		if want := fmt.Sprintf("v%d", 6+i); ev.Detail != want {
			t.Fatalf("event %d detail %q, want %q (oldest-first)", i, ev.Detail, want)
		}
		if i > 0 && got[i].Seq <= got[i-1].Seq {
			t.Fatalf("seq not monotone: %d then %d", got[i-1].Seq, got[i].Seq)
		}
		if i > 0 && got[i].At <= got[i-1].At {
			t.Fatalf("timestamps not monotone under the injected clock")
		}
	}
	s0 := r.StreamSnapshot(0)
	if len(s0) != 2 || s0[0].Detail != "v6" || s0[1].Detail != "v8" {
		t.Fatalf("stream 0 ring = %+v, want v6,v8", s0)
	}
	if r.StreamSnapshot(7) != nil {
		t.Fatal("unknown stream should read empty")
	}
}

func TestAnomalyPredicate(t *testing.T) {
	cases := []struct {
		ev   Event
		want bool
	}{
		{Event{Kind: KindRollback}, true},
		{Event{Kind: KindQuarantine}, true},
		{Event{Kind: KindPressure, Detail: "critical"}, true},
		{Event{Kind: KindPressure, Detail: "elevated"}, false},
		{Event{Kind: KindCheckpoint, Detail: DetailReject}, true},
		{Event{Kind: KindCheckpoint, Detail: DetailRestore}, false},
		{Event{Kind: KindVerdict, Detail: "shed"}, false},
		{Event{Kind: KindBreaker, Detail: "open"}, false},
		{Event{Kind: KindSwap}, false},
	}
	for _, c := range cases {
		if got := Anomaly(c.ev); got != c.want {
			t.Errorf("Anomaly(%+v) = %v, want %v", c.ev, got, c.want)
		}
	}
}

func TestTripFreezesAndDumps(t *testing.T) {
	reg := telemetry.NewRegistry()
	tr := telemetry.NewTracer(16, func() time.Duration { return 0 })
	tr.Record(telemetry.Span{Stream: 3, Stage: "adapt", Trace: "d3.g1.1", Event: "report"})
	tr.Record(telemetry.Span{Stream: 0, Stage: "decide", Trace: "f0.1"})
	tr.Record(telemetry.Span{Stream: 3, Stage: "adapt", Trace: "d3.g1.1", Event: "rollback"})

	var hooked *Dump
	r := NewRecorder(Config{
		Now:     tickClock(),
		Spans:   tr,
		Gather:  reg,
		Info:    map[string]string{"seed": "13"},
		OnDump:  func(d *Dump) { hooked = d },
		Metrics: reg,
	})
	reg.Counter("anole_core_frames_total", "").Add(42)

	r.Record(Event{Stream: 3, Kind: KindVerdict, Detail: "shed", Trace: "f3.9"})
	if r.Frozen() {
		t.Fatal("non-anomaly froze the recorder")
	}
	r.Record(Event{Stream: 3, Kind: KindRollback, Detail: "candidate rejected", Trace: "d3.g1.1", Value: 1})
	if !r.Frozen() {
		t.Fatal("rollback did not freeze the recorder")
	}
	d := r.LastDump()
	if d == nil || hooked != d {
		t.Fatal("dump not captured or OnDump not invoked with it")
	}
	if d.Version != DumpVersion || !strings.HasPrefix(d.Reason, "rollback") {
		t.Fatalf("dump header %+v", d)
	}
	if d.Trigger.Kind != KindRollback || len(d.Events) != 2 {
		t.Fatalf("dump trigger/events wrong: %+v", d)
	}
	if len(d.StreamEvents) != 2 {
		t.Fatalf("stream events = %d, want 2", len(d.StreamEvents))
	}
	// Linked spans: exactly the trigger trace's spans, both hops.
	if len(d.Spans) != 2 {
		t.Fatalf("linked spans = %d, want 2 (trace-filtered)", len(d.Spans))
	}
	for _, s := range d.Spans {
		if s.Trace != "d3.g1.1" {
			t.Fatalf("unlinked span leaked into dump: %+v", s)
		}
	}
	if d.Metrics["anole_core_frames_total"] != 42 {
		t.Fatalf("metrics snapshot missing: %v", d.Metrics)
	}
	if d.Config["seed"] != "13" {
		t.Fatalf("config echo missing: %v", d.Config)
	}

	// Frozen: further events drop, evidence survives.
	r.Record(Event{Stream: 3, Kind: KindVerdict, Detail: "late"})
	if got := r.Snapshot(); len(got) != 2 {
		t.Fatalf("frozen ring mutated: %d events", len(got))
	}
	if r.Dropped() != 1 {
		t.Fatalf("dropped = %d, want 1", r.Dropped())
	}
	r.Thaw()
	r.Record(Event{Stream: 3, Kind: KindVerdict, Detail: "post-thaw"})
	if got := r.Snapshot(); len(got) != 3 {
		t.Fatalf("thawed recorder did not record: %d events", len(got))
	}

	m := telemetry.Map(reg)
	if m["anole_flight_events_total"] != 3 || m["anole_flight_trips_total"] != 1 || m["anole_flight_dropped_total"] != 1 {
		t.Fatalf("flight metrics = %v", m)
	}
	if err := telemetry.ValidateScheme(reg.Gather()); err != nil {
		t.Fatalf("scheme: %v", err)
	}
}

func TestNilRecorderIsNoOp(t *testing.T) {
	var r *Recorder
	r.Record(Event{Kind: KindRollback})
	r.Thaw()
	if r.Frozen() || r.Snapshot() != nil || r.StreamSnapshot(0) != nil || r.LastDump() != nil || r.Dropped() != 0 {
		t.Fatal("nil recorder not inert")
	}
}

// TestRecorderConcurrentWriters hammers one recorder from many
// goroutines — writers, trippers, and readers — and must pass under
// -race with consistent final counts.
func TestRecorderConcurrentWriters(t *testing.T) {
	r := NewRecorder(Config{GlobalCap: 64, StreamCap: 8})
	const writers, perWriter = 8, 500
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				switch i % 97 {
				case 13:
					r.Record(Event{Stream: w, Kind: KindPressure, Detail: "critical"})
					r.Thaw()
				case 31:
					r.Record(Event{Stream: w, Kind: KindQuarantine})
					r.Thaw()
				default:
					r.Record(Event{Stream: w, Kind: KindVerdict, Detail: "shed", Trace: "f0.1"})
				}
				if i%50 == 0 {
					_ = r.Snapshot()
					_ = r.StreamSnapshot(w)
					_ = r.LastDump()
					_ = r.Frozen()
				}
			}
		}(w)
	}
	wg.Wait()
	r.Thaw()
	if got := len(r.Snapshot()); got != 64 {
		t.Fatalf("global ring = %d events, want full 64", got)
	}
	if r.LastDump() == nil {
		t.Fatal("no dump survived the stress")
	}
}

func TestDumpRoundTrip(t *testing.T) {
	d := &Dump{
		Version: DumpVersion,
		Reason:  "rollback:candidate rejected",
		At:      5 * time.Millisecond,
		Trigger: Event{Seq: 9, Stream: 3, Kind: KindRollback, Trace: "d3.g1.1", Value: 1},
		Events:  []Event{{Seq: 8, Kind: KindPressure, Detail: "elevated"}},
		Spans:   []telemetry.Span{{Seq: 1, Stream: 3, Stage: "adapt", Trace: "d3.g1.1", Event: "report"}},
		Metrics: map[string]float64{"anole_core_frames_total": 10},
		Config:  map[string]string{"seed": "13"},
	}
	var buf bytes.Buffer
	if err := WriteDump(&buf, d); err != nil {
		t.Fatal(err)
	}
	got, err := ReadDump(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Reason != d.Reason || got.Trigger != d.Trigger || len(got.Events) != 1 ||
		len(got.Spans) != 1 || got.Spans[0].Trace != "d3.g1.1" ||
		got.Metrics["anole_core_frames_total"] != 10 || got.Config["seed"] != "13" {
		t.Fatalf("round trip mismatch: %+v", got)
	}
}

func TestReadDumpRejects(t *testing.T) {
	if _, err := ReadDump(strings.NewReader("{not json")); err == nil {
		t.Fatal("malformed JSON accepted")
	}
	if _, err := ReadDump(strings.NewReader(`{"version":99,"reason":"x"}`)); err == nil {
		t.Fatal("unknown version accepted")
	}
	if _, err := ReadDump(strings.NewReader(`{"version":1}{"version":1}`)); err == nil {
		t.Fatal("trailing data accepted")
	}
}

func TestHandler(t *testing.T) {
	r := NewRecorder(Config{Now: tickClock()})
	h := Handler(r)

	get := func(path string) (*httptest.ResponseRecorder, status) {
		req := httptest.NewRequest("GET", path, nil)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		var st status
		if rec.Code == 200 && strings.Contains(path, "dump=1") == false {
			if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
				t.Fatalf("bad body: %v", err)
			}
		}
		return rec, st
	}

	rec, _ := get("/debug/flight?dump=1")
	if rec.Code != 404 {
		t.Fatalf("dump before anomaly: status %d, want 404", rec.Code)
	}
	r.Record(Event{Stream: 1, Kind: KindVerdict, Detail: "shed"})
	rec, st := get("/debug/flight")
	if rec.Code != 200 || st.Frozen || len(st.Recent) != 1 || st.Dump != nil {
		t.Fatalf("live status = %d %+v", rec.Code, st)
	}
	r.Record(Event{Stream: 1, Kind: KindRollback, Detail: "rejected"})
	rec, st = get("/debug/flight?stream=1")
	if rec.Code != 200 || !st.Frozen || st.Dump == nil || len(st.Recent) != 2 {
		t.Fatalf("post-anomaly status = %d %+v", rec.Code, st)
	}
	rec, _ = get("/debug/flight?dump=1")
	if rec.Code != 200 {
		t.Fatalf("dump fetch: status %d", rec.Code)
	}
	if d, err := ReadDump(rec.Body); err != nil || d.Trigger.Kind != KindRollback {
		t.Fatalf("endpoint dump not ReadDump-compatible: %v", err)
	}
	rec, _ = get("/debug/flight?stream=bogus")
	if rec.Code != 400 {
		t.Fatalf("bad stream: status %d, want 400", rec.Code)
	}
}
