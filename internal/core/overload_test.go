package core_test

import (
	"context"
	"errors"
	"slices"
	"strings"
	"testing"
	"time"

	"anole/internal/core"
	"anole/internal/device"
	"anole/internal/prefetch"
	"anole/internal/synth"
	"anole/internal/testutil"
)

// TestMultiRuntimeThermalThrottlingRaisesLatency is the regression
// guard for satellite thermal wiring: a fleet configured with a
// thermal model that cannot sustain the workload must heat past the
// throttle threshold, and the resulting derate must show up in the
// core frame-latency accounting — strictly higher TotalLatency than an
// identical run without the thermal model.
func TestMultiRuntimeThermalThrottlingRaisesLatency(t *testing.T) {
	fx := testutil.Shared(t)
	const streams, perStream = 2, 120
	run := func(th *device.ThermalModel) *core.MultiRuntime {
		m, err := core.NewMultiRuntime(fx.Bundle, core.MultiRuntimeConfig{
			Streams:    streams,
			CacheSlots: 3,
			Fleet:      device.UniformFleet(device.JetsonTX2NX, streams),
			Thermal:    th,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(m.Close)
		if _, err := m.ProcessStreams(streamFrames(t, streams, perStream), nil); err != nil {
			t.Fatal(err)
		}
		return m
	}

	cool := run(nil)
	hot := run(&device.ThermalModel{
		SustainedW:   0.5, // far below the TX2 NX active draw: saturates
		TimeConstant: time.Millisecond,
		MaxDerate:    0.9,
	})

	for i := 0; i < streams; i++ {
		dev := hot.StreamDevice(i)
		if dev.Heat() <= 1 {
			t.Fatalf("stream %d heat %.3f, want past the throttle threshold 1", i, dev.Heat())
		}
		if dev.ThrottleFactor() >= 1 {
			t.Fatalf("stream %d throttle factor %.3f, want a derate", i, dev.ThrottleFactor())
		}
		if cool.StreamDevice(i).Heat() != 0 {
			t.Fatalf("stream %d heated without a thermal model", i)
		}
	}
	hs, cs := hot.Stats(), cool.Stats()
	if hs.Frames != cs.Frames {
		t.Fatalf("frame counts diverged: %d vs %d", hs.Frames, cs.Frames)
	}
	if hs.TotalLatency <= cs.TotalLatency {
		t.Fatalf("throttled latency %v not above unthrottled %v", hs.TotalLatency, cs.TotalLatency)
	}
}

// TestMultiRuntimeGPUMemoryBecomesByteCapacity pins satellite (b): a
// device profile's GPUMemoryMB is enforced as the shared cache's byte
// capacity (scaled to sizer units), and a run never leaves the
// resident set above it.
func TestMultiRuntimeGPUMemoryBecomesByteCapacity(t *testing.T) {
	fx := testutil.Shared(t)
	m, err := core.NewMultiRuntime(fx.Bundle, core.MultiRuntimeConfig{
		Streams:    2,
		CacheSlots: 3,
		Fleet:      device.UniformFleet(device.JetsonTX2NX, 2),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	want := int64(device.JetsonTX2NX.GPUMemoryMB * float64(1<<20) / device.BytesScale)
	if got := m.Cache().ByteCapacity(); got != want {
		t.Fatalf("byte capacity %d, want %d from the %s profile", got, want, device.JetsonTX2NX.Name)
	}
	if _, err := m.ProcessStreams(streamFrames(t, 2, 60), nil); err != nil {
		t.Fatal(err)
	}
	if used := m.Cache().BytesUsed(); used <= 0 || used > want {
		t.Fatalf("resident bytes %d outside (0, %d]", used, want)
	}

	// Without a device profile there is nothing to enforce.
	free, err := core.NewMultiRuntime(fx.Bundle, core.MultiRuntimeConfig{Streams: 2, CacheSlots: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer free.Close()
	if got := free.Cache().ByteCapacity(); got != 0 {
		t.Fatalf("byte capacity %d without a device profile, want 0", got)
	}
}

// TestMultiRuntimeSwapPurgeByteAccounting pins satellite (c)'s ledger
// invariant: through a canary swap, a rollback, and a stale-model
// purge, BytesUsed always equals the currently wired sizer summed over
// the resident key set — byte accounting never drifts.
func TestMultiRuntimeSwapPurgeByteAccounting(t *testing.T) {
	fx := testutil.Shared(t)
	candidate, err := core.QuantizeBundle(fx.Bundle, 8)
	if err != nil {
		t.Fatal(err)
	}
	m, err := core.NewMultiRuntime(fx.Bundle, core.MultiRuntimeConfig{
		Streams:    2,
		CacheSlots: fx.Bundle.NumModels() + 2,
		Fleet:      device.UniformFleet(device.JetsonTX2NX, 2),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	// sizesOf mirrors the runtime's cache sizer: detector name to frozen serialized
	// size; keys outside the bundle measure zero.
	sizesOf := func(b *core.Bundle) map[string]int64 {
		out := make(map[string]int64, len(b.Detectors))
		for _, d := range b.Detectors {
			out[d.Name] = d.SizeBytes()
		}
		return out
	}
	ledgerMatches := func(step string, sizes map[string]int64) {
		t.Helper()
		var want int64
		for _, k := range m.Cache().Keys() {
			want += sizes[k]
		}
		if got := m.Cache().BytesUsed(); got != want {
			t.Fatalf("%s: BytesUsed %d, resident sum %d", step, got, want)
		}
	}

	if _, err := m.ProcessStreams(streamFrames(t, 2, 60), nil); err != nil {
		t.Fatal(err)
	}
	ledgerMatches("after warmup", sizesOf(fx.Bundle))

	// Residents from a withdrawn generation, unknown to any sizer.
	for _, stale := range []string{"M_old_a", "M_old_b"} {
		if _, _, err := m.Cache().Request(stale, 1); err != nil {
			t.Fatal(err)
		}
	}
	ledgerMatches("with stale residents", sizesOf(fx.Bundle))

	// Canary: the swap re-wires the sizer to the candidate bundle and
	// re-measures every resident.
	if err := m.SwapStreamBundle(1, candidate); err != nil {
		t.Fatal(err)
	}
	ledgerMatches("after canary swap", sizesOf(candidate))
	if _, err := m.ProcessStreams(streamFrames(t, 2, 40), nil); err != nil {
		t.Fatal(err)
	}
	ledgerMatches("after mixed-fleet run", sizesOf(candidate))

	// Rollback, then purge the stale generation.
	if err := m.SwapStreamBundle(1, fx.Bundle); err != nil {
		t.Fatal(err)
	}
	if purged := m.PurgeStaleModels(); purged != 2 {
		t.Fatalf("purged %d, want the 2 stale models", purged)
	}
	ledgerMatches("after purge", sizesOf(fx.Bundle))
	for _, k := range m.Cache().Keys() {
		if sizesOf(fx.Bundle)[k] == 0 {
			t.Fatalf("non-bundle key %q survived the purge", k)
		}
	}
}

// unreachableFetcher delivers every model at once except the named one,
// whose repository entry is unreachable: every fetch of it fails. It
// serves demand fetches only; a background start is refused.
type unreachableFetcher struct{ name string }

func (unreachableFetcher) Tick() {}

func (unreachableFetcher) StartBackground(name string, _ func(int64, error)) (func() bool, error) {
	return nil, errors.New("background fetch not served")
}

func (f unreachableFetcher) FetchModelNow(_ context.Context, name string) (int64, time.Duration, error) {
	if name == f.name {
		return 0, 0, errors.New("repository unreachable")
	}
	return 1, time.Millisecond, nil
}

// TestPressureColdStartErrorQuarantinesStream pins uniform frame-error
// handling: with the pressure machinery on and the ladder at ShedNone,
// a cold-start resolve error ("unreachable with an empty cache") on one
// stream quarantines that stream while every other stream keeps being
// served. Without the pressure machinery the same error aborts
// ProcessStreams.
func TestPressureColdStartErrorQuarantinesStream(t *testing.T) {
	fx := testutil.Shared(t)
	const streams, perStream = 3, 20
	frameSets := streamFrames(t, streams, perStream)

	// The model stream 0's first frame decides is the unreachable one.
	// Every other stream starts at its first frame deciding another
	// model, so its cold start fetches something reachable.
	probe, err := core.NewRuntime(fx.Bundle, core.RuntimeConfig{CacheSlots: fx.Bundle.NumModels()})
	if err != nil {
		t.Fatal(err)
	}
	decide := func(f *synth.Frame) int {
		res, err := probe.ProcessFrame(f)
		if err != nil {
			t.Fatal(err)
		}
		return res.Desired
	}
	unreachable := decide(frameSets[0][0])
	for s := 1; s < streams; s++ {
		k := slices.IndexFunc(frameSets[s], func(f *synth.Frame) bool { return decide(f) != unreachable })
		if k < 0 {
			t.Fatalf("stream %d decides only model %d", s, unreachable)
		}
		frameSets[s] = append(slices.Clone(frameSets[s][k:]), frameSets[s][:k]...)
	}

	run := func(deadline time.Duration) (*core.MultiRuntime, [][]core.FrameResult, error) {
		m, err := core.NewMultiRuntime(fx.Bundle, core.MultiRuntimeConfig{
			Streams:    streams,
			CacheSlots: fx.Bundle.NumModels(),
			Deadline:   deadline,
			// TopK -1: no background prefetch, so only demand fetches run.
			Prefetch: &prefetch.Config{Fetcher: unreachableFetcher{fx.Bundle.Detectors[unreachable].Name}, TopK: -1},
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(m.Close)
		results, err := m.ProcessStreams(frameSets, nil)
		return m, results, err
	}

	if _, _, err := run(0); err == nil || !strings.Contains(err.Error(), "unreachable with an empty cache") {
		t.Fatalf("without pressure the cold-start error must abort the run, got %v", err)
	}

	// An hour-long deadline is never missed: the ladder stays at ShedNone.
	m, results, err := run(time.Hour)
	if err != nil {
		t.Fatalf("a frame error aborted the fleet instead of quarantining its stream: %v", err)
	}
	if v := results[0][0].Verdict; v != core.VerdictQuarantined {
		t.Fatalf("stream 0 frame 0 verdict %v, want quarantined", v)
	}
	if ps := m.PressureStats(); ps.Quarantines == 0 || ps.Rung != "none" {
		t.Fatalf("pressure stats %+v: want a quarantine with the ladder at none", ps)
	}
	for s := 1; s < streams; s++ {
		for i, res := range results[s] {
			if res.Verdict != core.VerdictServed {
				t.Fatalf("stream %d frame %d verdict %v, want served", s, i, res.Verdict)
			}
		}
	}
}
