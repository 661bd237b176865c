package core_test

import (
	"errors"
	"sync"
	"testing"

	"anole/internal/core"
	"anole/internal/device"
	"anole/internal/modelcache"
	"anole/internal/netsim"
	"anole/internal/prefetch"
	"anole/internal/synth"
	"anole/internal/testutil"
)

// streamFrames deals the shared fixture's test frames into n
// equally-sized streams, round-robin so every stream sees a scene mix.
func streamFrames(t *testing.T, n, perStream int) [][]*synth.Frame {
	t.Helper()
	fx := testutil.Shared(t)
	frames := fx.Corpus.Frames(synth.Test)
	if len(frames) == 0 {
		t.Fatal("fixture has no test frames")
	}
	// Frames are read-only inputs, so wrapping around the corpus (and
	// sharing frames between streams) is safe.
	out := make([][]*synth.Frame, n)
	for s := 0; s < n; s++ {
		for i := 0; i < perStream; i++ {
			out[s] = append(out[s], frames[(i*n+s)%len(frames)])
		}
	}
	return out
}

// TestMultiRuntimeSingleStreamMatchesRuntime is the determinism guard
// for serving one camera through MultiRuntime (single shard by
// default): it must produce frame-for-frame identical results to the
// single-tenant Runtime on the same sequence, including simulated
// latency, hysteresis smoothing, cache behavior and — with link
// prefetch on — demand-fetch stalls and prefetch counters.
func TestMultiRuntimeSingleStreamMatchesRuntime(t *testing.T) {
	fx := testutil.Shared(t)
	frames := streamFrames(t, 1, 120)[0]

	for _, tc := range []struct {
		hysteresis int
		prefetch   bool
	}{{0, false}, {3, false}, {0, true}} {
		hysteresis := tc.hysteresis
		var spf, mpf *prefetch.Config
		if tc.prefetch {
			// Two identically seeded links, one per side.
			spf = linkPrefetchConfig(t, fx.Bundle, netsim.DefaultConfig(0.7), 2)
			mpf = linkPrefetchConfig(t, fx.Bundle, netsim.DefaultConfig(0.7), 2)
		}
		single, err := core.NewRuntime(fx.Bundle, core.RuntimeConfig{
			CacheSlots:       3,
			SwitchHysteresis: hysteresis,
			Device:           mustSim(device.JetsonTX2NX),
			Prefetch:         spf,
		})
		if err != nil {
			t.Fatal(err)
		}
		multi, err := core.NewMultiRuntime(fx.Bundle, core.MultiRuntimeConfig{
			Streams:          1,
			CacheSlots:       3,
			SwitchHysteresis: hysteresis,
			Fleet:            device.UniformFleet(device.JetsonTX2NX, 1),
			Prefetch:         mpf,
		})
		if err != nil {
			t.Fatal(err)
		}
		if multi.Cache().NumShards() != 1 {
			t.Fatalf("1 stream defaulted to %d shards, want 1", multi.Cache().NumShards())
		}

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
			t.Fatalf("%+v: %d results, want %d", tc, len(got[0]), len(want))
		}
		for i := range want {
			if got[0][i] != want[i] {
				t.Fatalf("%+v: frame %d diverged:\n multi %+v\nsingle %+v",
					tc, i, got[0][i], want[i])
			}
		}

		ssched, msched := single.Prefetcher(), multi.Prefetcher()
		single.Close()
		multi.Close()
		ss, ms := single.Stats(), multi.Stats()
		if ss.Frames != ms.Frames || ss.Switches != ms.Switches ||
			ss.Cache != ms.Cache || ss.Detection != ms.Detection ||
			ss.TotalLatency != ms.TotalLatency ||
			ss.ColdMisses != ms.ColdMisses || ss.FetchStall != ms.FetchStall {
			t.Fatalf("%+v: aggregate stats diverged:\n multi %+v\nsingle %+v", tc, ms, ss)
		}
		if tc.prefetch {
			sps, mps := ssched.Stats(), msched.Stats()
			if sps != mps {
				t.Fatalf("scheduler stats diverged:\n multi %+v\nsingle %+v", mps, sps)
			}
			if ss.ColdMisses == 0 || sps.Issued == 0 {
				t.Fatalf("prefetch case left the link idle: cold misses %d, prefetches issued %d", ss.ColdMisses, sps.Issued)
			}
		}
	}
}

// TestMultiRuntimeConcurrentStreams drives four streams over four
// workers sharing one cache, asserting the aggregate bookkeeping is
// exact whatever the interleaving: no frame lost, one cache lookup per
// frame, residency within capacity, and per-stream totals summing to
// the aggregate. Run with -race.
func TestMultiRuntimeConcurrentStreams(t *testing.T) {
	fx := testutil.Shared(t)
	const streams, perStream = 4, 60
	frameSets := streamFrames(t, streams, perStream)

	m, err := core.NewMultiRuntime(fx.Bundle, core.MultiRuntimeConfig{
		Streams:    streams,
		CacheSlots: 4,
		Workers:    streams,
		Fleet:      device.UniformFleet(device.JetsonTX2NX, streams),
	})
	if err != nil {
		t.Fatal(err)
	}

	var mu sync.Mutex
	observed := make(map[int]int)
	results, err := m.ProcessStreams(frameSets, func(stream int, f *synth.Frame, res core.FrameResult) error {
		if res.Used < 0 || res.Used >= fx.Bundle.NumModels() {
			return errors.New("used model out of range")
		}
		mu.Lock()
		observed[stream]++
		mu.Unlock()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	for s := 0; s < streams; s++ {
		if len(results[s]) != perStream {
			t.Fatalf("stream %d: %d results, want %d", s, len(results[s]), perStream)
		}
		if observed[s] != perStream {
			t.Fatalf("stream %d: observer saw %d frames, want %d", s, observed[s], perStream)
		}
	}

	agg := m.Stats()
	if agg.Frames != streams*perStream {
		t.Fatalf("aggregate frames %d, want %d", agg.Frames, streams*perStream)
	}
	cache := m.Cache()
	if cache.Lookups() != int64(streams*perStream) {
		t.Fatalf("cache lookups %d, want one per frame (%d)", cache.Lookups(), streams*perStream)
	}
	if agg.Cache.Hits+agg.Cache.Misses != cache.Lookups() {
		t.Fatalf("cache counters unbalanced: %+v vs %d lookups", agg.Cache, cache.Lookups())
	}
	if used := cache.Used(); used > cache.Capacity() {
		t.Fatalf("cache over capacity: %d > %d", used, cache.Capacity())
	}

	var frames, switches int
	var tp, fp, fn int
	for s := 0; s < streams; s++ {
		ss := m.StreamStats(s)
		frames += ss.Frames
		switches += ss.Switches
		tp += ss.Detection.TP
		fp += ss.Detection.FP
		fn += ss.Detection.FN
		if dev := m.StreamDevice(s); dev == nil || dev.Inferences() == 0 {
			t.Fatalf("stream %d device simulator idle", s)
		}
	}
	if frames != agg.Frames || switches != agg.Switches ||
		tp != agg.Detection.TP || fp != agg.Detection.FP || fn != agg.Detection.FN {
		t.Fatalf("per-stream sums (%d,%d,%d,%d,%d) disagree with aggregate %+v",
			frames, switches, tp, fp, fn, agg)
	}
	if m.SimulatedMakespan() <= 0 || m.SimulatedMakespan() > agg.TotalLatency {
		t.Fatalf("makespan %v outside (0, total %v]", m.SimulatedMakespan(), agg.TotalLatency)
	}
}

// TestMultiRuntimeStreamsAreIsolated runs the same frame sequence on
// every stream of a wide-open cache (no contention): per-stream state
// must not leak, so all streams report identical stats.
func TestMultiRuntimeStreamsAreIsolated(t *testing.T) {
	fx := testutil.Shared(t)
	frames := streamFrames(t, 1, 80)[0]
	const streams = 3

	m, err := core.NewMultiRuntime(fx.Bundle, core.MultiRuntimeConfig{
		Streams: streams,
		// Every model fits: cache behavior is identical for all
		// streams after each model's first admission.
		CacheSlots:       fx.Bundle.NumModels(),
		CacheShards:      1,
		SwitchHysteresis: 2,
		Workers:          streams,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Pre-warm the shared cache with every model so each request is a
	// hit regardless of stream interleaving; any remaining divergence
	// between streams is then a per-stream state leak.
	for _, det := range fx.Bundle.Detectors {
		if _, _, err := m.Cache().Request(det.Name, 1); err != nil {
			t.Fatal(err)
		}
	}
	sets := make([][]*synth.Frame, streams)
	for s := range sets {
		sets[s] = frames
	}
	results, err := m.ProcessStreams(sets, nil)
	if err != nil {
		t.Fatal(err)
	}
	for s := 1; s < streams; s++ {
		st0, st := m.StreamStats(0), m.StreamStats(s)
		if st0.Frames != st.Frames || st0.Switches != st.Switches || st0.Detection != st.Detection {
			t.Fatalf("stream %d stats diverged from stream 0:\n%+v\n%+v", s, st, st0)
		}
		for i := range results[0] {
			if results[0][i] != results[s][i] {
				t.Fatalf("stream %d frame %d diverged: %+v vs %+v", s, i, results[s][i], results[0][i])
			}
		}
	}
}

func TestMultiRuntimeValidation(t *testing.T) {
	fx := testutil.Shared(t)
	if _, err := core.NewMultiRuntime(&core.Bundle{}, core.MultiRuntimeConfig{}); err == nil {
		t.Fatal("invalid bundle accepted")
	}
	m, err := core.NewMultiRuntime(fx.Bundle, core.MultiRuntimeConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if m.NumStreams() != 1 || m.Workers() != 1 {
		t.Fatalf("defaults: %d streams, %d workers", m.NumStreams(), m.Workers())
	}
	if _, err := m.ProcessStreams(make([][]*synth.Frame, 2), nil); err == nil {
		t.Fatal("stream count mismatch accepted")
	}
}

func TestMultiRuntimeObserverErrorAborts(t *testing.T) {
	fx := testutil.Shared(t)
	frameSets := streamFrames(t, 2, 30)
	m, err := core.NewMultiRuntime(fx.Bundle, core.MultiRuntimeConfig{Streams: 2, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	boom := errors.New("sink full")
	_, err = m.ProcessStreams(frameSets, func(stream int, f *synth.Frame, res core.FrameResult) error {
		if stream == 1 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("observer error not propagated: %v", err)
	}
}

// TestMultiRuntimeStreamsShareOneBundle pins the refactor's memory
// claim: N streams hold exactly one resident copy of every model. Each
// stream's runtime must reference the SAME bundle — and therefore the
// same frozen detector, encoder, and decision-head weights — as every
// other stream, not a clone.
func TestMultiRuntimeStreamsShareOneBundle(t *testing.T) {
	fx := testutil.Shared(t)
	const streams = 4
	m, err := core.NewMultiRuntime(fx.Bundle, core.MultiRuntimeConfig{Streams: streams})
	if err != nil {
		t.Fatal(err)
	}
	if m.Bundle() != fx.Bundle {
		t.Fatal("MultiRuntime cloned the bundle")
	}
	for s := 0; s < streams; s++ {
		sb := m.StreamBundle(s)
		if sb != fx.Bundle {
			t.Fatalf("stream %d runs on a different bundle copy", s)
		}
		for i, d := range sb.Detectors {
			if d != fx.Bundle.Detectors[i] {
				t.Fatalf("stream %d detector %d is a copy", s, i)
			}
			if d.Weights() != fx.Bundle.Detectors[i].Weights() {
				t.Fatalf("stream %d detector %d holds copied weights", s, i)
			}
		}
		if sb.Encoder.Weights != fx.Bundle.Encoder.Weights {
			t.Fatalf("stream %d encoder weights copied", s)
		}
		if sb.Decision.Head != fx.Bundle.Decision.Head {
			t.Fatalf("stream %d decision head copied", s)
		}
	}
}

// TestSharedBundleStreamsMatchSequential drives N streams over one
// UN-cloned bundle concurrently and checks every stream's frame
// results are identical to a sequential single-runtime pass over the
// same frames. Both sides run against a pre-warmed all-models cache so
// admission order cannot differ; any divergence is then shared mutable
// state inside the supposedly immutable models. Run with -race.
func TestSharedBundleStreamsMatchSequential(t *testing.T) {
	fx := testutil.Shared(t)
	frames := streamFrames(t, 1, 80)[0]
	const streams = 4
	slots := fx.Bundle.NumModels()

	seqStore := modelcache.MustNewSharded(slots, modelcache.LFU, 1)
	for _, det := range fx.Bundle.Detectors {
		if _, _, err := seqStore.Request(det.Name, 1); err != nil {
			t.Fatal(err)
		}
	}
	single, err := core.NewRuntime(fx.Bundle, core.RuntimeConfig{
		Store:            seqStore,
		SwitchHysteresis: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	want := make([]core.FrameResult, 0, len(frames))
	for _, f := range frames {
		res, err := single.ProcessFrame(f)
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, res)
	}

	m, err := core.NewMultiRuntime(fx.Bundle, core.MultiRuntimeConfig{
		Streams:          streams,
		CacheSlots:       slots,
		CacheShards:      1,
		SwitchHysteresis: 2,
		Workers:          streams,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, det := range fx.Bundle.Detectors {
		if _, _, err := m.Cache().Request(det.Name, 1); err != nil {
			t.Fatal(err)
		}
	}
	sets := make([][]*synth.Frame, streams)
	for s := range sets {
		sets[s] = frames
	}
	results, err := m.ProcessStreams(sets, nil)
	if err != nil {
		t.Fatal(err)
	}
	for s := 0; s < streams; s++ {
		if len(results[s]) != len(want) {
			t.Fatalf("stream %d: %d results, want %d", s, len(results[s]), len(want))
		}
		for i := range want {
			if results[s][i] != want[i] {
				t.Fatalf("stream %d frame %d diverged from sequential:\nconcurrent %+v\nsequential %+v",
					s, i, results[s][i], want[i])
			}
		}
	}
}
