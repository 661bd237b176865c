package core_test

import (
	"testing"

	"anole/internal/core"
	"anole/internal/device"
	"anole/internal/modelcache"
	"anole/internal/synth"
	"anole/internal/telemetry"
	"anole/internal/testutil"
)

// prewarmCache admits every repertoire model so subsequent requests are
// hits regardless of stream interleaving — the precondition for exact
// cross-mode result comparison.
func prewarmCache(t *testing.T, store *modelcache.Sharded, b *core.Bundle) {
	t.Helper()
	for _, det := range b.Detectors {
		if _, _, err := store.Request(det.Name, 1); err != nil {
			t.Fatal(err)
		}
	}
}

// TestMultiRuntimeBatchedSingleStreamMatchesRuntime is the tick
// pipeline's determinism guard with detector workers on: one stream
// run with several Workers must be frame-for-frame bit-identical to
// the plain Runtime — including cold cache admissions, hysteresis
// smoothing and simulated latency — because the batched kernels
// preserve summation order and the cache backbone runs sequentially.
func TestMultiRuntimeBatchedSingleStreamMatchesRuntime(t *testing.T) {
	fx := testutil.Shared(t)
	frames := streamFrames(t, 1, 120)[0]

	for _, hysteresis := range []int{0, 3} {
		single, err := core.NewRuntime(fx.Bundle, core.RuntimeConfig{
			CacheSlots:       3,
			SwitchHysteresis: hysteresis,
			Device:           mustSim(device.JetsonTX2NX),
		})
		if err != nil {
			t.Fatal(err)
		}
		multi, err := core.NewMultiRuntime(fx.Bundle, core.MultiRuntimeConfig{
			Streams:          1,
			Workers:          4,
			CacheSlots:       3,
			SwitchHysteresis: hysteresis,
			Fleet:            device.UniformFleet(device.JetsonTX2NX, 1),
		})
		if err != nil {
			t.Fatal(err)
		}
		defer multi.Close()

		want := make([]core.FrameResult, 0, len(frames))
		for _, f := range frames {
			res, err := single.ProcessFrame(f)
			if err != nil {
				t.Fatal(err)
			}
			want = append(want, res)
		}
		got, err := multi.ProcessStreams([][]*synth.Frame{frames}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(got[0]) != len(want) {
			t.Fatalf("hysteresis %d: %d results, want %d", hysteresis, len(got[0]), len(want))
		}
		for i := range want {
			if got[0][i] != want[i] {
				t.Fatalf("hysteresis %d: frame %d diverged:\nbatched %+v\n single %+v",
					hysteresis, i, got[0][i], want[i])
			}
		}
		ss, ms := single.Stats(), multi.Stats()
		if ss.Frames != ms.Frames || ss.Switches != ms.Switches ||
			ss.Detection != ms.Detection || ss.TotalLatency != ms.TotalLatency {
			t.Fatalf("hysteresis %d: aggregate stats diverged:\nbatched %+v\n single %+v", hysteresis, ms, ss)
		}
	}
}

// perStreamReference is the deterministic reference for runs over a
// shared cache pre-warmed with every model, where stream interleaving
// cannot change any result: each stream's frames run through its own
// core.Runtime.ProcessFrame over a private pre-warmed store, with a
// device simulator for fleet[s] when a fleet is given.
func perStreamReference(t *testing.T, b *core.Bundle, frameSets [][]*synth.Frame, hysteresis int, fleet device.Fleet) ([][]core.FrameResult, []core.RunStats) {
	t.Helper()
	results := make([][]core.FrameResult, len(frameSets))
	stats := make([]core.RunStats, len(frameSets))
	for s, frames := range frameSets {
		store := modelcache.MustNewSharded(b.NumModels(), modelcache.LFU, 1)
		prewarmCache(t, store, b)
		cfg := core.RuntimeConfig{Store: store, SwitchHysteresis: hysteresis}
		if fleet != nil {
			sim, err := device.NewSimulatorAtMode(fleet[s].Profile, fleet[s].Mode)
			if err != nil {
				t.Fatal(err)
			}
			cfg.Device = sim
		}
		rt, err := core.NewRuntime(b, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range frames {
			res, err := rt.ProcessFrame(f)
			if err != nil {
				t.Fatal(err)
			}
			results[s] = append(results[s], res)
		}
		stats[s] = rt.Stats()
	}
	return results, stats
}

// TestMultiRuntimeBatchedMatchesUnbatched pins the tick pipeline
// against per-frame execution over several streams sharing one
// pre-warmed all-models cache: every per-frame result and every
// per-stream stat must be bit-identical to each stream's own
// Runtime.ProcessFrame run.
func TestMultiRuntimeBatchedMatchesUnbatched(t *testing.T) {
	fx := testutil.Shared(t)
	const streams, perStream, hysteresis = 6, 50, 2
	frameSets := streamFrames(t, streams, perStream)
	fleet := device.UniformFleet(device.JetsonTX2NX, streams)

	m, err := core.NewMultiRuntime(fx.Bundle, core.MultiRuntimeConfig{
		Streams:          streams,
		CacheSlots:       fx.Bundle.NumModels(),
		CacheShards:      1,
		SwitchHysteresis: hysteresis,
		Fleet:            fleet,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	prewarmCache(t, m.Cache(), fx.Bundle)
	got, err := m.ProcessStreams(frameSets, nil)
	if err != nil {
		t.Fatal(err)
	}

	want, wstats := perStreamReference(t, fx.Bundle, frameSets, hysteresis, fleet)
	for s := 0; s < streams; s++ {
		for i := range want[s] {
			if got[s][i] != want[s][i] {
				t.Fatalf("stream %d frame %d diverged:\n  pipeline %+v\nper-frame %+v",
					s, i, got[s][i], want[s][i])
			}
		}
		gs, ws := m.StreamStats(s), wstats[s]
		if gs.Frames != ws.Frames || gs.Switches != ws.Switches ||
			gs.Detection != ws.Detection || gs.TotalLatency != ws.TotalLatency ||
			gs.FallbackServed != ws.FallbackServed {
			t.Fatalf("stream %d stats diverged:\n  pipeline %+v\nper-frame %+v", s, gs, ws)
		}
	}
}

// TestMultiRuntimeBatchedDeterministic runs the tick pipeline twice
// over a deliberately contended cache (fewer slots than models, no
// prewarm): the sequential resolve stage makes the whole run a
// deterministic function of its input, so two fresh MultiRuntimes must
// agree on every frame.
func TestMultiRuntimeBatchedDeterministic(t *testing.T) {
	fx := testutil.Shared(t)
	const streams, perStream = 5, 40
	frameSets := streamFrames(t, streams, perStream)

	run := func() [][]core.FrameResult {
		m, err := core.NewMultiRuntime(fx.Bundle, core.MultiRuntimeConfig{
			Streams:          streams,
			CacheSlots:       2,
			CacheShards:      1,
			SwitchHysteresis: 2,
			Policy:           modelcache.LFU,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer m.Close()
		results, err := m.ProcessStreams(frameSets, nil)
		if err != nil {
			t.Fatal(err)
		}
		return results
	}

	first, second := run(), run()
	for s := 0; s < streams; s++ {
		for i := range first[s] {
			if first[s][i] != second[s][i] {
				t.Fatalf("stream %d frame %d not deterministic:\n first %+v\nsecond %+v",
					s, i, first[s][i], second[s][i])
			}
		}
	}
}

// TestMultiRuntimeBatchedObserverOrder pins the observer contract:
// calls arrive serialized in strict (tick, stream) order, so an
// observer needs no locks and sees streams advance in lockstep — never
// two frames of one stream before every ready stream has had its turn
// at the earlier tick.
func TestMultiRuntimeBatchedObserverOrder(t *testing.T) {
	fx := testutil.Shared(t)
	const streams, perStream = 4, 15
	frameSets := streamFrames(t, streams, perStream)
	m, err := core.NewMultiRuntime(fx.Bundle, core.MultiRuntimeConfig{
		Streams: streams,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	var order []int
	perStreamSeen := make([]int, streams)
	_, err = m.ProcessStreams(frameSets, func(stream int, f *synth.Frame, res core.FrameResult) error {
		order = append(order, stream)
		perStreamSeen[stream]++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(order) != streams*perStream {
		t.Fatalf("observer saw %d calls, want %d", len(order), streams*perStream)
	}
	for i, s := range order {
		tick, within := i/streams, i%streams
		if s != within {
			t.Fatalf("call %d (tick %d): stream %d, want %d — not (tick, stream) order", i, tick, s, within)
		}
	}
	for s, n := range perStreamSeen {
		if n != perStream {
			t.Fatalf("stream %d observed %d frames, want %d", s, n, perStream)
		}
	}
}

// TestMultiRuntimeBatchedUnequalLengths drives streams of different
// lengths (including an empty one) through the tick pipeline: ticks
// must stay fair as short streams drain, every produced result must
// match the per-stream reference, and the occupancy gauge must end at
// the final tick's ready fraction.
func TestMultiRuntimeBatchedUnequalLengths(t *testing.T) {
	fx := testutil.Shared(t)
	base := streamFrames(t, 1, 9)[0]
	frameSets := [][]*synth.Frame{base, base[:4], nil, base[:7]}
	const streams = 4

	reg := telemetry.NewRegistry()
	m, err := core.NewMultiRuntime(fx.Bundle, core.MultiRuntimeConfig{
		Streams:     streams,
		CacheSlots:  fx.Bundle.NumModels(),
		CacheShards: 1,
		Metrics:     reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	prewarmCache(t, m.Cache(), fx.Bundle)
	got, err := m.ProcessStreams(frameSets, nil)
	if err != nil {
		t.Fatal(err)
	}

	want, _ := perStreamReference(t, fx.Bundle, frameSets, 0, nil)
	for s := range frameSets {
		if len(got[s]) != len(frameSets[s]) {
			t.Fatalf("stream %d: %d results for %d frames", s, len(got[s]), len(frameSets[s]))
		}
		for i := range want[s] {
			if got[s][i] != want[s][i] {
				t.Fatalf("stream %d frame %d diverged:\n  pipeline %+v\nper-frame %+v",
					s, i, got[s][i], want[s][i])
			}
		}
	}
	// The last tick (index 8) has 1 of 4 streams ready.
	if occ := reg.Gauge("anole_core_tick_occupancy", "").Value(); occ != 0.25 {
		t.Fatalf("final tick occupancy %v, want 0.25", occ)
	}
}

// TestMultiRuntimeBatchMetricsAndChunking pins the batch telemetry and
// the MaxBatch chunking rule: 10 ready streams with MaxBatch 4 must
// dispatch ceil(10/4)=3 chunks per tick, carry every frame through the
// batched decide stage, and still produce results identical to one
// un-chunked dispatch.
func TestMultiRuntimeBatchMetricsAndChunking(t *testing.T) {
	fx := testutil.Shared(t)
	const streams, perStream = 10, 12
	frameSets := streamFrames(t, streams, perStream)

	run := func(maxBatch int, reg *telemetry.Registry) [][]core.FrameResult {
		m, err := core.NewMultiRuntime(fx.Bundle, core.MultiRuntimeConfig{
			Streams:     streams,
			CacheSlots:  fx.Bundle.NumModels(),
			CacheShards: 1,
			MaxBatch:    maxBatch,
			Metrics:     reg,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer m.Close()
		prewarmCache(t, m.Cache(), fx.Bundle)
		results, err := m.ProcessStreams(frameSets, nil)
		if err != nil {
			t.Fatal(err)
		}
		return results
	}

	reg := telemetry.NewRegistry()
	chunked := run(4, reg)
	whole := run(0, nil)
	for s := 0; s < streams; s++ {
		for i := range whole[s] {
			if chunked[s][i] != whole[s][i] {
				t.Fatalf("stream %d frame %d: chunked %+v, whole %+v", s, i, chunked[s][i], whole[s][i])
			}
		}
	}
	wantDispatches := int64(perStream * 3) // ceil(10/4) chunks per tick
	if got := reg.Counter("anole_core_batch_dispatches_total", "").Value(); got != wantDispatches {
		t.Fatalf("batch dispatches %d, want %d", got, wantDispatches)
	}
	if got := reg.Counter("anole_core_batched_frames_total", "").Value(); got != int64(streams*perStream) {
		t.Fatalf("batched frames %d, want %d", got, streams*perStream)
	}
	if got := reg.Histogram("anole_core_batch_size_frames", "", nil).Count(); got != wantDispatches {
		t.Fatalf("batch size observations %d, want %d", got, wantDispatches)
	}
}

// TestMultiRuntimeBatchedStressMatchesSequential is the 1k-stream
// equivalence stress: 1024 streams × 4 frames through the MultiRuntime
// (chunked decide batches, fanned-out features, ranking and detect
// slices) against a pre-warmed all-models cache, with every stream's
// results compared bit-for-bit to a sequential single-stream Runtime
// pass over the same frames. Run with -race: the fan-out items must
// stay disjoint.
func TestMultiRuntimeBatchedStressMatchesSequential(t *testing.T) {
	if testing.Short() {
		t.Skip("1k-stream stress skipped in -short")
	}
	fx := testutil.Shared(t)
	streams := 1024
	if raceDetectorEnabled {
		// The detector multiplies per-frame cost; keep the stress
		// meaningful but bounded under -race.
		streams = 256
	}
	const perStream, hysteresis = 4, 2
	frameSets := streamFrames(t, streams, perStream)
	fleet := device.UniformFleet(device.JetsonTX2NX, streams)

	m, err := core.NewMultiRuntime(fx.Bundle, core.MultiRuntimeConfig{
		Streams:          streams,
		CacheSlots:       fx.Bundle.NumModels(),
		CacheShards:      1,
		SwitchHysteresis: hysteresis,
		Fleet:            fleet,
		MaxBatch:         256,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	prewarmCache(t, m.Cache(), fx.Bundle)

	got, err := m.ProcessStreams(frameSets, nil)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := perStreamReference(t, fx.Bundle, frameSets, hysteresis, fleet)
	for s := 0; s < streams; s++ {
		for i := range want[s] {
			if got[s][i] != want[s][i] {
				t.Fatalf("stream %d frame %d diverged:\n   batched %+v\nsequential %+v",
					s, i, got[s][i], want[s][i])
			}
		}
	}
}

// TestMultiRuntimeSteadyStateAllocs pins the tick pipeline's
// steady-state allocation rate: once every buffer has grown to the
// tick shape and every (bundle, model) group has run once, a
// ProcessStreams tick allocates only its returned results (the outer
// slice and one shared backing array) — a few allocations per tick,
// whatever the stream count. CI's allocations job re-measures this pin
// on every push.
func TestMultiRuntimeSteadyStateAllocs(t *testing.T) {
	if raceDetectorEnabled {
		t.Skip("the race detector allocates per goroutine")
	}
	fx := testutil.Shared(t)
	const streams, ticks = 32, 16
	frameSets := streamFrames(t, streams, ticks)
	m, err := core.NewMultiRuntime(fx.Bundle, core.MultiRuntimeConfig{
		Streams:     streams,
		Workers:     4,
		CacheSlots:  fx.Bundle.NumModels(),
		CacheShards: 1,
		Fleet:       device.UniformFleet(device.JetsonTX2NX, streams),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	prewarmCache(t, m.Cache(), fx.Bundle)
	tickInputs := make([][][]*synth.Frame, ticks)
	for k := range tickInputs {
		tickInputs[k] = make([][]*synth.Frame, streams)
		for s := range tickInputs[k] {
			tickInputs[k][s] = frameSets[s][k : k+1]
		}
	}
	step := 0
	runTick := func() {
		if _, err := m.ProcessStreams(tickInputs[step%ticks], nil); err != nil {
			t.Fatal(err)
		}
		step++
	}
	for i := 0; i < 3*ticks; i++ {
		runTick()
	}
	perTick := testing.AllocsPerRun(5*ticks, runTick)
	t.Logf("%v allocs per tick, %.3f per frame", perTick, perTick/streams)
	// The returned results account for 2.
	if perTick > 3 {
		t.Fatalf("steady-state ProcessStreams: %v allocs per tick, want at most 3", perTick)
	}
}
