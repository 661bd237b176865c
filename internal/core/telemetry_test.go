package core_test

import (
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"
	"time"

	"anole/internal/core"
	"anole/internal/device"
	"anole/internal/prefetch"
	"anole/internal/synth"
	"anole/internal/telemetry"
	"anole/internal/testutil"
)

var liveScrapeDeadline = 200 * time.Millisecond

// TestRuntimeTelemetryMatchesRunStats is the no-drift guard for one
// stream: the registry's anole_core_* values must equal the stream's
// RunStats.
func TestRuntimeTelemetryMatchesRunStats(t *testing.T) {
	fx := testutil.Shared(t)
	frames := streamFrames(t, 1, 150)

	reg := telemetry.NewRegistry()
	tr := telemetry.NewTracer(0, func() time.Duration { return 0 })
	mr, err := core.NewMultiRuntime(fx.Bundle, core.MultiRuntimeConfig{
		CacheSlots: 3,
		Fleet:      device.UniformFleet(device.JetsonTX2NX, 1),
		Metrics:    reg,
		Tracer:     tr,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer mr.Close()
	if _, err := mr.ProcessStreams(frames, nil); err != nil {
		t.Fatal(err)
	}
	s := mr.StreamStats(0)
	m := telemetry.Map(reg)
	checks := map[string]float64{
		"anole_core_frames_total":                float64(s.Frames),
		"anole_core_switches_total":              float64(s.Switches),
		"anole_core_degraded_frames_total":       float64(s.DegradedFrames),
		"anole_core_fallback_served_total":       float64(s.FallbackServed),
		"anole_core_cold_misses_total":           float64(s.ColdMisses),
		"anole_core_frame_latency_seconds_count": float64(s.Frames),
	}
	for name, want := range checks {
		if got := m[name]; got != want {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
	if sum := m["anole_core_frame_latency_seconds_sum"]; math.Abs(sum-s.TotalLatency.Seconds()) > 1e-6 {
		t.Errorf("latency sum = %v, RunStats %v", sum, s.TotalLatency.Seconds())
	}

	// Every frame records decide, cache and detect spans (fetch only on
	// absent models, and this runtime has no link). The ring retains the
	// most recent DefaultSpanBuffer spans.
	wantSpans := int64(3 * len(frames[0]))
	if tr.Total() != wantSpans {
		t.Fatalf("recorded %d spans, want %d", tr.Total(), wantSpans)
	}
	spans := tr.Snapshot()
	stages := map[string]int{}
	for _, sp := range spans {
		stages[sp.Stage]++
		if sp.Stream != 0 {
			t.Fatalf("span stream = %d, want 0", sp.Stream)
		}
		if sp.Seq <= 0 {
			t.Fatalf("span seq = %d, want > 0", sp.Seq)
		}
	}
	if stages[telemetry.StageFetch] != 0 {
		t.Fatalf("fetch spans without a link: %d", stages[telemetry.StageFetch])
	}
	if stages[telemetry.StageDecide] == 0 || stages[telemetry.StageCache] == 0 || stages[telemetry.StageDetect] == 0 {
		t.Fatalf("missing stages: %v", stages)
	}
}

// TestMultiRuntimeSharedRegistryAggregates drives several streams over
// one registry and tracer: handle sharing must make the registry the
// cross-stream aggregate, and spans must carry their stream tags.
func TestMultiRuntimeSharedRegistryAggregates(t *testing.T) {
	fx := testutil.Shared(t)
	const streams, perStream = 3, 50
	frameSets := streamFrames(t, streams, perStream)

	reg := telemetry.NewRegistry()
	tr := telemetry.NewTracer(8192, func() time.Duration { return 0 })
	m, err := core.NewMultiRuntime(fx.Bundle, core.MultiRuntimeConfig{
		Streams:    streams,
		CacheSlots: 4,
		Workers:    streams,
		Metrics:    reg,
		Tracer:     tr,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.ProcessStreams(frameSets, nil); err != nil {
		t.Fatal(err)
	}
	agg := m.Stats()
	vals := telemetry.Map(reg)
	if got := vals["anole_core_frames_total"]; got != float64(agg.Frames) {
		t.Fatalf("frames counter = %v, aggregate stats %d", got, agg.Frames)
	}
	if got := vals["anole_core_switches_total"]; got != float64(agg.Switches) {
		t.Fatalf("switches counter = %v, aggregate stats %d", got, agg.Switches)
	}
	if got := vals["anole_modelcache_lookups_total"]; got != float64(agg.Cache.Hits+agg.Cache.Misses) {
		t.Fatalf("cache lookups = %v, want %d", got, agg.Cache.Hits+agg.Cache.Misses)
	}
	if got := vals["anole_core_streams"]; got != streams {
		t.Fatalf("streams gauge = %v", got)
	}

	seen := map[int]bool{}
	for _, sp := range tr.Snapshot() {
		seen[sp.Stream] = true
	}
	for i := 0; i < streams; i++ {
		if !seen[i] {
			t.Fatalf("no spans from stream %d", i)
		}
	}

	// The combined name set must pass the scheme validator.
	if err := telemetry.ValidateScheme(reg.Gather()); err != nil {
		t.Fatalf("scheme: %v", err)
	}
}

// TestZeroFrameStatsWellDefined pins the zero-frame snapshot contract:
// every derived rate on a fresh runtime must be finite (0, not NaN) and
// the whole RunStats must survive JSON marshaling (encoding/json errors
// on NaN/Inf).
func TestZeroFrameStatsWellDefined(t *testing.T) {
	fx := testutil.Shared(t)
	rt, err := core.NewRuntime(fx.Bundle, core.RuntimeConfig{CacheSlots: 3})
	if err != nil {
		t.Fatal(err)
	}
	s := rt.Stats()
	for name, v := range map[string]float64{
		"MeanSceneDuration": s.MeanSceneDuration(),
		"MissRate":          s.MissRate,
		"Precision":         s.Detection.Precision,
		"Recall":            s.Detection.Recall,
		"F1":                s.Detection.F1,
	} {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Errorf("zero-frame %s = %v, want finite", name, v)
		}
	}
	if s.Frames != 0 || s.Cache.Hits != 0 {
		t.Fatalf("fresh runtime has history: %+v", s)
	}

	m, err := core.NewMultiRuntime(fx.Bundle, core.MultiRuntimeConfig{Streams: 2})
	if err != nil {
		t.Fatal(err)
	}
	ms := m.Stats()
	if v := ms.MeanSceneDuration(); v != 0 {
		t.Fatalf("zero-frame multi MeanSceneDuration = %v", v)
	}
	if math.IsNaN(ms.MissRate) || math.IsNaN(ms.Detection.F1) {
		t.Fatalf("zero-frame multi stats have NaN: %+v", ms)
	}
}

// TestRuntimeTelemetryDisabledIsFreeOfSideEffects checks the nil path:
// no registry, no tracer — results must be identical to an instrumented
// run (telemetry must never perturb the pipeline).
func TestRuntimeTelemetryDisabledIsFreeOfSideEffects(t *testing.T) {
	fx := testutil.Shared(t)
	frames := streamFrames(t, 1, 80)

	run := func(reg *telemetry.Registry, tr *telemetry.Tracer) []core.FrameResult {
		m, err := core.NewMultiRuntime(fx.Bundle, core.MultiRuntimeConfig{
			CacheSlots: 3,
			Fleet:      device.UniformFleet(device.JetsonTX2NX, 1),
			Metrics:    reg,
			Tracer:     tr,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer m.Close()
		out, err := m.ProcessStreams(frames, nil)
		if err != nil {
			t.Fatal(err)
		}
		return out[0]
	}
	plain := run(nil, nil)
	instrumented := run(telemetry.NewRegistry(), telemetry.NewTracer(0, func() time.Duration { return 0 }))
	for i := range plain {
		if plain[i] != instrumented[i] {
			t.Fatalf("frame %d diverged with telemetry on:\n  off %+v\n   on %+v", i, plain[i], instrumented[i])
		}
	}
}

// TestLiveScrapeMatchesStats scrapes the registry from a second
// goroutine while a 4-stream fleet serves under a deadline, a
// saturating thermal model, a link that cannot deliver one model and
// two failing frames. Every scraped counter must be non-decreasing from
// one scrape to the next, and the final scrape must equal Stats() and
// PressureStats() field for field. Run under -race it also shows that a
// scrape reads the counters the serving goroutine writes without a data
// race.
func TestLiveScrapeMatchesStats(t *testing.T) {
	fx := testutil.Shared(t)
	const streams, perStream, chunk = 4, 240, 8
	frameSets := streamFrames(t, streams, perStream)
	// A nil frame fails validation, which quarantines its stream.
	frameSets[3][10], frameSets[3][120] = nil, nil

	reg := telemetry.NewRegistry()
	m, err := core.NewMultiRuntime(fx.Bundle, core.MultiRuntimeConfig{
		Streams:    streams,
		CacheSlots: 2,
		Fleet:      device.UniformFleet(device.JetsonTX2NX, streams),
		Thermal:    &device.ThermalModel{SustainedW: 0.5, TimeConstant: time.Millisecond, MaxDerate: 0.9},
		Deadline:   20 * time.Millisecond,
		Prefetch:   &prefetch.Config{Fetcher: unreachableFetcher{fx.Bundle.Detectors[1].Name}, TopK: -1},
		Metrics:    reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	done := make(chan struct{})
	var (
		wg      sync.WaitGroup
		scrapes int
		errs    []string
	)
	wg.Add(1)
	go func() {
		defer wg.Done()
		prev := telemetry.Map(reg)
		for {
			select {
			case <-done:
				return
			default:
			}
			cur := telemetry.Map(reg)
			scrapes++
			for name, v := range cur {
				if (strings.HasSuffix(name, "_total") || strings.HasSuffix(name, "_count")) && v < prev[name] {
					errs = append(errs, fmt.Sprintf("scrape %d: %s fell from %v to %v", scrapes, name, prev[name], v))
				}
			}
			prev = cur
		}
	}()
	tick := make([][]*synth.Frame, streams)
	for start := 0; start < perStream; start += chunk {
		for s := range tick {
			tick[s] = frameSets[s][start : start+chunk]
		}
		if _, err := m.ProcessStreams(tick, nil); err != nil {
			t.Fatal(err)
		}
	}
	close(done)
	wg.Wait()
	for _, e := range errs {
		t.Error(e)
	}
	t.Logf("%d live scrapes", scrapes)

	st, ps := m.Stats(), m.PressureStats()
	got := telemetry.Map(reg)
	for name, want := range map[string]int{
		"anole_core_frames_total":                 st.Frames,
		"anole_core_switches_total":               st.Switches,
		"anole_core_cold_misses_total":            st.ColdMisses,
		"anole_core_degraded_frames_total":        st.DegradedFrames,
		"anole_core_fallback_served_total":        st.FallbackServed,
		"anole_core_frame_latency_seconds_count":  st.Frames,
		"anole_modelcache_hits_total":             int(st.Cache.Hits),
		"anole_modelcache_misses_total":           int(st.Cache.Misses),
		"anole_pressure_shed_dropped_total":       st.ShedFrames,
		"anole_pressure_shed_downgrade_total":     st.DowngradedServed,
		"anole_pressure_quarantined_frames_total": st.QuarantinedFrames,
	} {
		if got[name] != float64(want) {
			t.Errorf("%s = %v, Stats %d", name, got[name], want)
		}
		if want == 0 {
			t.Errorf("%s is 0: the run does not exercise it", name)
		}
	}
	for name, want := range map[string]int{
		"anole_pressure_shed_dropped_total":       ps.ShedFrames,
		"anole_pressure_shed_downgrade_total":     ps.DowngradedServed,
		"anole_pressure_quarantined_frames_total": ps.QuarantinedFrames,
		"anole_pressure_quarantines_total":        ps.Quarantines,
	} {
		if got[name] != float64(want) {
			t.Errorf("%s = %v, PressureStats %d", name, got[name], want)
		}
	}
	if ps.Quarantines < 2 {
		t.Errorf("%d quarantines, want the 2 the failing frames cause", ps.Quarantines)
	}
	if math.Abs(got["anole_core_frame_latency_seconds_sum"]-st.TotalLatency.Seconds()) > 1e-6 {
		t.Errorf("latency sum = %v, Stats %v", got["anole_core_frame_latency_seconds_sum"], st.TotalLatency.Seconds())
	}
}
