package core_test

import (
	"fmt"
	goruntime "runtime"
	"strings"
	"testing"
	"time"

	"anole/internal/core"
	"anole/internal/device"
	"anole/internal/modelcache"
	"anole/internal/prefetch"
	"anole/internal/stats"
	"anole/internal/synth"
	"anole/internal/testutil"
)

// fanOutWorkers are the worker budgets the fan-out tests compare.
// Workers 1 runs every stage inline on the ProcessStreams goroutine.
var fanOutWorkers = []int{1, 2, 3, 8}

// decideBlockRows mirrors the tick's decide block size (tick.go), so
// the fleets below can straddle block boundaries on purpose.
const decideBlockRows = 16

// TestMultiRuntimeFanOutMatchesSerial pins the tick pipeline's fan-out:
// whatever the worker budget, every FrameResult and every stat must be
// bit-identical. Four fleets:
//
//   - uniform fleets of 1, 15, 17, 33 and 64 streams over a pre-warmed
//     all-models cache — one short decide block, one block and a
//     one-row tail, two blocks and a tail, whole blocks — where each
//     stream's own Runtime.ProcessFrame is the reference at every
//     worker count;
//   - a planned mixed fleet of 60 streams whose two bundle partitions
//     (40 and 20 rows, interleaved in stream order) each end in a
//     partial block, over a pre-warmed cache of both partitions'
//     models, again against each stream's own Runtime on its planned
//     bundle;
//   - a mixed, planned fleet on an 8-slot cache under a deadline it
//     cannot meet, so the shed ladder climbs from none through
//     prefetch and downgrade to drop — downgrades onto resident models,
//     shed frames — across several bundle partitions;
//   - a 3-slot cache under a 19-model repertoire behind a prefetching
//     link that goes down mid-run, so misses, demand fetches, degraded
//     frames and fallbacks occur.
//
// Per-stream Runtimes cannot reproduce a shed ladder or a shared link's
// tick order, so on the last two fleets the Workers 1 run is the
// reference.
func TestMultiRuntimeFanOutMatchesSerial(t *testing.T) {
	fx := testutil.Shared(t)

	t.Run("uniform", func(t *testing.T) {
		const perStream, hysteresis = 8, 2
		for _, streams := range []int{1, decideBlockRows - 1, decideBlockRows + 1, 2*decideBlockRows + 1, 4 * decideBlockRows} {
			t.Run(fmt.Sprintf("%d-streams", streams), func(t *testing.T) {
				frameSets := streamFrames(t, streams, perStream)
				fleet := device.UniformFleet(device.JetsonTX2NX, streams)
				want, _ := perStreamReference(t, fx.Bundle, frameSets, hysteresis, fleet)
				for _, workers := range fanOutWorkers {
					m, err := core.NewMultiRuntime(fx.Bundle, core.MultiRuntimeConfig{
						Streams:          streams,
						Workers:          workers,
						CacheSlots:       fx.Bundle.NumModels(),
						CacheShards:      1,
						SwitchHysteresis: hysteresis,
						Fleet:            fleet,
					})
					if err != nil {
						t.Fatal(err)
					}
					prewarmCache(t, m.Cache(), fx.Bundle)
					got, err := m.ProcessStreams(frameSets, nil)
					m.Close()
					if err != nil {
						t.Fatal(err)
					}
					compareResults(t, workers, got, want)
				}
			})
		}
	})

	t.Run("planned-blocks", func(t *testing.T) {
		const streams, perStream, hysteresis = 60, 6, 1
		fleet, err := device.BuildFleet("nano:1,tx2:1,laptop:1", streams, 42)
		if err != nil {
			t.Fatal(err)
		}
		frameSets := streamFrames(t, streams, perStream)
		var want [][]core.FrameResult
		for _, workers := range fanOutWorkers {
			m, err := core.NewMultiRuntime(fx.Bundle, core.MultiRuntimeConfig{
				Streams:          streams,
				Workers:          workers,
				CacheSlots:       4 * fx.Bundle.NumModels(),
				CacheShards:      1,
				SwitchHysteresis: hysteresis,
				Fleet:            fleet,
				Plan:             &core.PlanConfig{},
			})
			if err != nil {
				t.Fatal(err)
			}
			rows := map[*core.Bundle]int{}
			for i := 0; i < streams; i++ {
				rows[m.StreamBundle(i)]++
			}
			straddles := 0
			for b, n := range rows {
				prewarmCache(t, m.Cache(), b)
				if n > decideBlockRows && n%decideBlockRows != 0 {
					straddles++
				}
			}
			if len(rows) < 2 || straddles < 2 {
				t.Fatalf("partition rows %v: want at least two partitions, each past a block and ending in a partial one", rows)
			}
			if want == nil {
				for i := 0; i < streams; i++ {
					ref, _ := perStreamReference(t, m.StreamBundle(i), frameSets[i:i+1], hysteresis, fleet[i:i+1])
					want = append(want, ref[0])
				}
			}
			got, err := m.ProcessStreams(frameSets, nil)
			m.Close()
			if err != nil {
				t.Fatal(err)
			}
			compareResults(t, workers, got, want)
		}
	})

	t.Run("planned-shed", func(t *testing.T) {
		const streams, perStream = 12, 60
		fleet, err := device.BuildFleet("nano:4,tx2:4,laptop:4", streams, 42)
		if err != nil {
			t.Fatal(err)
		}
		frameSets := streamFrames(t, streams, perStream)
		run := func(workers int) ([][]core.FrameResult, core.RunStats, core.PressureStats, int) {
			m, err := core.NewMultiRuntime(fx.Bundle, core.MultiRuntimeConfig{
				Streams:    streams,
				Workers:    workers,
				CacheSlots: 8,
				Fleet:      fleet,
				Plan:       &core.PlanConfig{},
				Thermal:    &device.ThermalModel{SustainedW: 4, TimeConstant: 200 * time.Millisecond, MaxDerate: 0.8},
				Deadline:   30 * time.Millisecond,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer m.Close()
			got, err := m.ProcessStreams(frameSets, nil)
			if err != nil {
				t.Fatal(err)
			}
			bundles := map[*core.Bundle]bool{}
			for i := 0; i < streams; i++ {
				bundles[m.StreamBundle(i)] = true
			}
			return got, m.Stats(), *m.PressureStats(), len(bundles)
		}
		want, wstats, wpress, partitions := run(1)
		if wpress.ShedFrames == 0 || wpress.DowngradedServed == 0 {
			t.Fatalf("the ladder never shed and downgraded: %+v", wpress)
		}
		if partitions < 2 {
			t.Fatalf("planned fleet ran %d bundle, want several partitions", partitions)
		}
		for _, workers := range fanOutWorkers[1:] {
			got, gstats, gpress, _ := run(workers)
			compareResults(t, workers, got, want)
			compareStats(t, workers, gstats, wstats)
			if gpress != wpress {
				t.Fatalf("workers %d: pressure stats %+v, want %+v", workers, gpress, wpress)
			}
		}
	})

	t.Run("contended-prefetch", func(t *testing.T) {
		const streams, warmup, outage, perStream = 8, 10, 30, 60
		frameSets := streamFrames(t, streams, perStream)
		split := func(from, to int) [][]*synth.Frame {
			out := make([][]*synth.Frame, streams)
			for s := range out {
				out[s] = frameSets[s][from:to]
			}
			return out
		}
		run := func(workers int) ([][]core.FrameResult, core.RunStats) {
			pf, flink := faultyLinkConfig(t, fx.Bundle, 2)
			m, err := core.NewMultiRuntime(fx.Bundle, core.MultiRuntimeConfig{
				Streams:          streams,
				Workers:          workers,
				CacheSlots:       3,
				SwitchHysteresis: 1,
				Prefetch:         pf,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer m.Close()
			var all [][]core.FrameResult
			for _, phase := range [][2]int{{0, warmup}, {warmup, perStream}} {
				if phase[0] == warmup {
					flink.ForceOutage(outage)
				}
				got, err := m.ProcessStreams(split(phase[0], phase[1]), nil)
				if err != nil {
					t.Fatal(err)
				}
				if all == nil {
					all = got
					continue
				}
				for s := range all {
					all[s] = append(all[s], got[s]...)
				}
			}
			return all, m.Stats()
		}
		want, wstats := run(1)
		if wstats.Cache.Misses == 0 || wstats.DegradedFrames == 0 || wstats.FallbackServed == 0 {
			t.Fatalf("the contended run never missed, degraded or fell back: %+v", wstats)
		}
		for _, workers := range fanOutWorkers[1:] {
			got, gstats := run(workers)
			compareResults(t, workers, got, want)
			compareStats(t, workers, gstats, wstats)
		}
	})
}

func compareResults(t *testing.T, workers int, got, want [][]core.FrameResult) {
	t.Helper()
	for s := range want {
		if len(got[s]) != len(want[s]) {
			t.Fatalf("workers %d stream %d: %d results, want %d", workers, s, len(got[s]), len(want[s]))
		}
		for i := range want[s] {
			if got[s][i] != want[s][i] {
				t.Fatalf("workers %d stream %d frame %d diverged:\n got %+v\nwant %+v", workers, s, i, got[s][i], want[s][i])
			}
		}
	}
}

func compareStats(t *testing.T, workers int, got, want core.RunStats) {
	t.Helper()
	if got.Frames != want.Frames || got.Switches != want.Switches || got.Cache != want.Cache ||
		got.Detection != want.Detection || got.TotalLatency != want.TotalLatency ||
		got.ColdMisses != want.ColdMisses || got.FetchStall != want.FetchStall ||
		got.DegradedFrames != want.DegradedFrames || got.FallbackServed != want.FallbackServed ||
		got.ShedFrames != want.ShedFrames || got.DowngradedServed != want.DowngradedServed {
		t.Fatalf("workers %d: stats diverged:\n got %+v\nwant %+v", workers, got, want)
	}
}

// TestRuntimeMissServesBestResidentBeforeRequest pins CMD's fallback
// rule with the residency probe skipped on hits: on a miss the frame is
// served by the best-ranked model resident before the request — even
// when that request's admission evicts it — and on a hit by the desired
// model.
func TestRuntimeMissServesBestResidentBeforeRequest(t *testing.T) {
	fx := testutil.Shared(t)
	b := fx.Bundle
	f := fx.Corpus.Frames(synth.Test)[0]
	emb := b.Encoder.EmbedFeatureInto(nil, synth.FrameFeatureInto(nil, f))
	rank := stats.RankDescending(b.Decision.ScoresInto(nil, emb))
	name := func(i int) string { return b.Detectors[i].Name }

	// Two slots holding the second- and third-ranked models; the
	// second-ranked one is the LFU victim when the top model is admitted.
	store := modelcache.MustNewSharded(2, modelcache.LFU, 1)
	rt, err := core.NewRuntime(b, core.RuntimeConfig{Store: store})
	if err != nil {
		t.Fatal(err)
	}
	if !store.Warm(name(rank[1]), 1, 1) || !store.Warm(name(rank[2]), 1, 5) {
		t.Fatal("warming the cache failed")
	}
	res, err := rt.ProcessFrame(f)
	if err != nil {
		t.Fatal(err)
	}
	if res.Desired != rank[0] || res.Hit {
		t.Fatalf("frame desired %d (hit %v), want a miss on %d", res.Desired, res.Hit, rank[0])
	}
	if store.Contains(name(rank[1])) {
		t.Fatalf("admitting %s did not evict %s: %v", name(rank[0]), name(rank[1]), store.Keys())
	}
	if res.Used != rank[1] {
		t.Fatalf("miss served model %d, want %d, the best resident before the request", res.Used, rank[1])
	}

	// The desired model is resident now: the same frame hits and is
	// served by it.
	res, err = rt.ProcessFrame(f)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Hit || res.Used != rank[0] {
		t.Fatalf("resident desired model: hit %v, used %d, want a hit served by %d", res.Hit, res.Used, rank[0])
	}
}

// TestMultiRuntimeFanOutAllocs pins the fan-out's allocation cost. A
// steady-state tick at Workers 1, where the ordered lane runs every
// block and slice, allocates only the two result slices ProcessStreams
// returns (testing.AllocsPerRun; so the decide scratch is pooled). The
// Workers 2 comparisons count with mallocsPerRun instead, at GOMAXPROCS
// 2 or more, so that the helper runs work items on its own thread and
// its allocations are counted: on eight decide blocks, after a long
// warm-up (the runtime's goroutine free lists and the scratch pool
// settle), a steady tick at Workers 2 allocates at most a quarter
// allocation more than at Workers 1 (RunStats.SceneDurations grows at
// both), so every helper's scratch is pooled too. A new runtime's
// first tick allocates at most two more at Workers 2 than at Workers
// 1, on a fleet of one block and a one-row tail and on one of four
// whole blocks; and each stream the fleet adds between them costs the
// first tick at most what it costs today, 144 allocations over 47
// streams (3.06 each), with 0.1 per stream of slack: per-stream state
// grown on first use would add one per stream.
// At Workers 1 the stream that opens a fourth decide block costs the
// first tick no more than the stream that fills the third: the decide
// scratches are one per worker, borrowed from the shared pool for the
// decide stage, not one per block. A first tick's count is
// NewMultiRuntime, prewarm, tick and Close less the same without the
// tick, so set-up allocations (packing, pools) are not compared. CI's
// allocations job re-measures these pins on every push.
func TestMultiRuntimeFanOutAllocs(t *testing.T) {
	if raceDetectorEnabled {
		t.Skip("the race detector allocates per goroutine")
	}
	fx := testutil.Shared(t)
	const streams, ticks = 8 * decideBlockRows, 16
	frameSets := streamFrames(t, streams, ticks)
	tickInputs := make([][][]*synth.Frame, ticks)
	for k := range tickInputs {
		tickInputs[k] = make([][]*synth.Frame, streams)
		for s := range tickInputs[k] {
			tickInputs[k][s] = frameSets[s][k : k+1]
		}
	}
	perTick := func(workers int, count func(int, func()) float64) float64 {
		m, err := core.NewMultiRuntime(fx.Bundle, core.MultiRuntimeConfig{
			Streams:     streams,
			Workers:     workers,
			CacheSlots:  fx.Bundle.NumModels(),
			CacheShards: 1,
			Fleet:       device.UniformFleet(device.JetsonTX2NX, streams),
		})
		if err != nil {
			t.Fatal(err)
		}
		defer m.Close()
		prewarmCache(t, m.Cache(), fx.Bundle)
		step := 0
		runTick := func() {
			if _, err := m.ProcessStreams(tickInputs[step%ticks], nil); err != nil {
				t.Fatal(err)
			}
			step++
		}
		for i := 0; i < 20*ticks; i++ {
			runTick()
		}
		return count(5*ticks, runTick)
	}
	if serial := perTick(1, testing.AllocsPerRun); serial > 2 {
		t.Fatalf("a steady tick allocates %v at Workers 1, more than the 2 result slices ProcessStreams returns", serial)
	}
	serial, fanned := perTick(1, mallocsPerRun), perTick(2, mallocsPerRun)
	t.Logf("allocs per tick at GOMAXPROCS %d: %v at Workers 1, %v at Workers 2", max(2, goruntime.GOMAXPROCS(0)), serial, fanned)
	if fanned > serial+0.25 {
		t.Fatalf("a steady tick allocates %v at Workers 2, more than %v at Workers 1", fanned, serial)
	}

	firstTick := func(workers, streams int, count func(int, func()) float64) float64 {
		frameSets := streamFrames(t, streams, 1)
		fleet := device.UniformFleet(device.JetsonTX2NX, streams)
		run := func(tick bool) float64 {
			return count(10, func() {
				m, err := core.NewMultiRuntime(fx.Bundle, core.MultiRuntimeConfig{
					Streams:     streams,
					Workers:     workers,
					CacheSlots:  fx.Bundle.NumModels(),
					CacheShards: 1,
					Fleet:       fleet,
				})
				if err != nil {
					t.Fatal(err)
				}
				prewarmCache(t, m.Cache(), fx.Bundle)
				if tick {
					if _, err := m.ProcessStreams(frameSets, nil); err != nil {
						t.Fatal(err)
					}
				}
				m.Close()
			})
		}
		return run(true) - run(false)
	}
	const added = 3*decideBlockRows - 1
	var few, many [2]float64 // first-tick allocations at Workers 1 and 2
	for _, workers := range []int{1, 2} {
		few[workers-1], many[workers-1] = firstTick(workers, decideBlockRows+1, mallocsPerRun), firstTick(workers, 4*decideBlockRows, mallocsPerRun)
		perStream := (many[workers-1] - few[workers-1]) / added
		t.Logf("Workers %d, first tick: %v allocs at %d streams, %v at %d, %.3f per added stream",
			workers, few[workers-1], decideBlockRows+1, many[workers-1], 4*decideBlockRows, perStream)
		if limit := 144.0/added + 0.1; perStream > limit {
			t.Fatalf("Workers %d: each added stream costs the first tick %.3f allocs, more than %.3f", workers, perStream, limit)
		}
	}
	if few[1] > few[0]+2 || many[1] > many[0]+2 {
		t.Fatalf("the first tick allocates %v and %v at Workers 2, more than %v and %v at Workers 1", few[1], many[1], few[0], many[0])
	}
	// 47 → 48 streams fills the third block, 48 → 49 opens the fourth;
	// no slice the tick appends to doubles its capacity between them.
	// Workers 1 runs no helper, so AllocsPerRun counts these, in whole
	// allocations per run.
	before, full, opened := firstTick(1, 3*decideBlockRows-1, testing.AllocsPerRun), firstTick(1, 3*decideBlockRows, testing.AllocsPerRun), firstTick(1, 3*decideBlockRows+1, testing.AllocsPerRun)
	t.Logf("first tick at Workers 1: %v, %v, %v allocs at 47, 48, 49 streams", before, full, opened)
	if opened-full > full-before {
		t.Fatalf("the stream opening a decide block costs %v allocs, the one filling a block %v", opened-full, full-before)
	}
}

// mallocsPerRun counts f's heap allocations per call as
// testing.AllocsPerRun does (one warm-up call, then the mean over runs
// calls) but at GOMAXPROCS 2 or more rather than 1, so that a fan-out's
// helpers run their work items beside the calling goroutine and their
// allocations are counted: runtime.MemStats.Mallocs counts every
// goroutine's.
func mallocsPerRun(runs int, f func()) float64 {
	defer goruntime.GOMAXPROCS(goruntime.GOMAXPROCS(max(2, goruntime.GOMAXPROCS(0))))
	f()
	var before, after goruntime.MemStats
	goruntime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	goruntime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(runs)
}

// TestMultiRuntimeResolveErrorLeavesNoHelper pins the fan-out's error
// path. Without the pressure machinery, a cold-start resolve error
// ("unreachable with an empty cache", as in
// TestPressureColdStartErrorQuarantinesStream) on the first stream of a
// three-block tick aborts ProcessStreams at Workers 2 and 8 while the
// helpers still have decide blocks to run. The call returns that error,
// and the goroutine count returns to what it was before the call: no
// helper outlives its chunk.
func TestMultiRuntimeResolveErrorLeavesNoHelper(t *testing.T) {
	fx := testutil.Shared(t)
	const streams, perStream = 3 * decideBlockRows, 4
	frameSets := streamFrames(t, streams, perStream)
	probe, err := core.NewRuntime(fx.Bundle, core.RuntimeConfig{CacheSlots: fx.Bundle.NumModels()})
	if err != nil {
		t.Fatal(err)
	}
	first, err := probe.ProcessFrame(frameSets[0][0])
	if err != nil {
		t.Fatal(err)
	}
	unreachable := fx.Bundle.Detectors[first.Desired].Name
	for _, workers := range []int{2, 8} {
		m, err := core.NewMultiRuntime(fx.Bundle, core.MultiRuntimeConfig{
			Streams:    streams,
			Workers:    workers,
			CacheSlots: fx.Bundle.NumModels(),
			// TopK -1: no background prefetch, so only demand fetches run.
			Prefetch: &prefetch.Config{Fetcher: unreachableFetcher{unreachable}, TopK: -1},
		})
		if err != nil {
			t.Fatal(err)
		}
		base := goruntime.NumGoroutine()
		if _, err := m.ProcessStreams(frameSets, nil); err == nil || !strings.Contains(err.Error(), "unreachable with an empty cache") {
			t.Fatalf("workers %d: want the cold-start error, got %v", workers, err)
		}
		// A helper that has left may still be on its way out.
		for deadline := time.Now().Add(5 * time.Second); goruntime.NumGoroutine() > base; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("workers %d: %d goroutines after the failed tick, %d before it", workers, goruntime.NumGoroutine(), base)
			}
		}
		m.Close()
	}
}
