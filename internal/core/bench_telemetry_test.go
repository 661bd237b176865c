package core_test

import (
	"slices"
	"testing"
	"time"

	"anole/internal/core"
	"anole/internal/device"
	"anole/internal/synth"
	"anole/internal/telemetry"
	"anole/internal/testutil"
)

// BenchmarkProcessFrame_TelemetryOff is the baseline for the telemetry
// overhead comparison: one frame per op through the one-stream tick
// pipeline with nil registry and tracer (counters count, but feed no
// registry; histogram and span writes are nil-receiver no-ops).
func BenchmarkProcessFrame_TelemetryOff(b *testing.B) { oneStreamBench(false)(b) }

// BenchmarkProcessFrame_TelemetryOn measures the instrumented hot path:
// counters feeding the registry, latency histograms and a full span
// ring. Compare against BenchmarkProcessFrame_TelemetryOff; the
// acceptance budget is <2% overhead.
func BenchmarkProcessFrame_TelemetryOn(b *testing.B) { oneStreamBench(true)(b) }

// oneStreamBench returns a benchmark of the serving path anole-run
// drives — MultiRuntime.ProcessStreams at one stream, one tick per op —
// with telemetry off (nil registry and tracer) or on (live registry and
// a full span ring).
func oneStreamBench(instrumented bool) func(*testing.B) {
	return func(b *testing.B) {
		fx := testutil.Shared(b)
		frames := fx.Corpus.Frames(synth.Test)
		cfg := core.MultiRuntimeConfig{
			Streams:    1,
			CacheSlots: 3,
			Fleet:      device.UniformFleet(device.JetsonTX2NX, 1),
		}
		if instrumented {
			cfg.Metrics = telemetry.NewRegistry()
			cfg.Tracer = telemetry.NewTracer(0, func() time.Duration { return 0 })
		}
		m, err := core.NewMultiRuntime(fx.Bundle, cfg)
		if err != nil {
			b.Fatal(err)
		}
		defer m.Close()
		tick := make([][]*synth.Frame, 1)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			k := i % len(frames)
			tick[0] = frames[k : k+1]
			if _, err := m.ProcessStreams(tick, nil); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// TestTelemetryOverheadBounded runs the off/on comparison in-process
// on the one-stream tick pipeline (oneStreamBench) and fails only on
// gross regressions. The real acceptance number (<2%) is checked by
// running the BenchmarkProcessFrame_Telemetry pair with -benchtime high
// enough to quiet scheduler noise; this smoke test uses a deliberately
// loose bound so it stays reliable on loaded CI machines while still
// catching an accidentally hot telemetry path (e.g. a mutex or
// allocation slipping into the per-frame writes). Off and on runs
// alternate, five of each, and their median ns/op are compared, so a
// burst of load from other test packages skews one run of a pair, not
// the ratio.
func TestTelemetryOverheadBounded(t *testing.T) {
	if testing.Short() {
		t.Skip("timing comparison skipped in -short mode")
	}
	if raceDetectorEnabled {
		// The race detector instruments every atomic and mutex — the
		// exact operations telemetry adds — so the ratio under -race
		// measures the detector, not the telemetry.
		t.Skip("timing comparison meaningless under -race")
	}
	const runs = 5
	benchOff, benchOn := oneStreamBench(false), oneStreamBench(true)
	var off, on []int64
	for i := 0; i < runs; i++ {
		r := testing.Benchmark(benchOff)
		if r.N == 0 || r.NsPerOp() == 0 {
			t.Skip("baseline benchmark did not run")
		}
		off = append(off, r.NsPerOp())
		on = append(on, testing.Benchmark(benchOn).NsPerOp())
	}
	slices.Sort(off)
	slices.Sort(on)
	offMed, onMed := off[runs/2], on[runs/2]
	ratio := float64(onMed) / float64(offMed)
	t.Logf("telemetry overhead: median off=%v/op on=%v/op ratio=%.4f (off %v, on %v ns/op)",
		time.Duration(offMed), time.Duration(onMed), ratio, off, on)
	if ratio > 1.5 {
		t.Fatalf("instrumented tick pipeline %.1f%% slower than disabled (smoke bound 50%%)", (ratio-1)*100)
	}
}

// BenchmarkFrameStep is the allocation-regression anchor for the
// frozen-weights execution model: the full ProcessFrame pipeline
// (scene-encode + decision head + cache + detect) on shared immutable
// weights with reused per-runtime buffers. CI runs it as a smoke test
// and tracks allocs/op — the neural-network stages contribute zero.
func BenchmarkFrameStep(b *testing.B) {
	fx := testutil.Shared(b)
	frames := fx.Corpus.Frames(synth.Test)
	rt, err := core.NewRuntime(fx.Bundle, core.RuntimeConfig{
		CacheSlots: 3,
		Device:     mustSim(device.JetsonTX2NX),
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := rt.ProcessFrame(frames[i%len(frames)]); err != nil {
			b.Fatal(err)
		}
	}
}
