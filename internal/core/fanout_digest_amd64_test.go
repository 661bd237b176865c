package core_test

import (
	"fmt"
	"hash"
	"hash/fnv"
	"testing"
	"time"

	"anole/internal/core"
	"anole/internal/device"
	"anole/internal/synth"
	"anole/internal/telemetry"
	"anole/internal/testutil"
)

// sharedOrderDigests are the FNV-64a digests of three fleets' full
// output — every FrameResult, the RunStats (cache stats among them),
// the pressure stats where the ladder runs, and the tracer's span
// sequence (stream, seq, stage, model, simulated duration, hit,
// degraded) in recording order. The shared cache, link, device clocks
// and tracer see every resolve of a chunk in stream order and then
// every finish in stream order; any other interleaving moves a digest.
// The values were recorded from the tick pipeline that ran decide,
// resolve, detect and finish as four separate passes over the chunk, so
// they are a reference independent of the pipelined fan-out. They hold
// on amd64 only, where Go never fuses a multiply and an add.
var sharedOrderDigests = map[string]string{
	"planned-shed":       "29877a61f0fce8c6",
	"contended-prefetch": "b1cbcfb238a12183",
	"uniform-64":         "60cf6ecadf75190f",
}

// TestMultiRuntimeSharedOrderDigest pins the tick pipeline's shared
// order against a recorded reference at every worker budget: the
// planned, shedding fleet and the contended prefetching fleet of
// TestMultiRuntimeFanOutMatchesSerial, and a 64-stream uniform fleet
// over a pre-warmed cache, each with a tracer attached.
func TestMultiRuntimeSharedOrderDigest(t *testing.T) {
	fx := testutil.Shared(t)
	const spanCap = 1 << 15
	newTracer := func() *telemetry.Tracer {
		return telemetry.NewTracer(spanCap, func() time.Duration { return 0 })
	}
	fleets := map[string]func(workers int) string{
		"planned-shed": func(workers int) string {
			const streams, perStream = 12, 60
			fleet, err := device.BuildFleet("nano:4,tx2:4,laptop:4", streams, 42)
			if err != nil {
				t.Fatal(err)
			}
			tr := newTracer()
			m, err := core.NewMultiRuntime(fx.Bundle, core.MultiRuntimeConfig{
				Streams:    streams,
				Workers:    workers,
				CacheSlots: 8,
				Fleet:      fleet,
				Plan:       &core.PlanConfig{},
				Thermal:    &device.ThermalModel{SustainedW: 4, TimeConstant: 200 * time.Millisecond, MaxDerate: 0.8},
				Deadline:   30 * time.Millisecond,
				Tracer:     tr,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer m.Close()
			got, err := m.ProcessStreams(streamFrames(t, streams, perStream), nil)
			if err != nil {
				t.Fatal(err)
			}
			h := fnv.New64a()
			fmt.Fprintf(h, "%+v\n", *m.PressureStats())
			return runDigest(t, h, m, tr, got)
		},
		"contended-prefetch": func(workers int) string {
			const streams, warmup, outage, perStream = 8, 10, 30, 60
			frameSets := streamFrames(t, streams, perStream)
			pf, flink := faultyLinkConfig(t, fx.Bundle, 2)
			tr := newTracer()
			m, err := core.NewMultiRuntime(fx.Bundle, core.MultiRuntimeConfig{
				Streams:          streams,
				Workers:          workers,
				CacheSlots:       3,
				SwitchHysteresis: 1,
				Prefetch:         pf,
				Tracer:           tr,
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
				in := make([][]*synth.Frame, streams)
				for s := range in {
					in[s] = frameSets[s][phase[0]:phase[1]]
				}
				got, err := m.ProcessStreams(in, nil)
				if err != nil {
					t.Fatal(err)
				}
				all = append(all, got...)
			}
			return runDigest(t, fnv.New64a(), m, tr, all)
		},
		"uniform-64": func(workers int) string {
			const streams, perStream = 4 * decideBlockRows, 8
			tr := newTracer()
			m, err := core.NewMultiRuntime(fx.Bundle, core.MultiRuntimeConfig{
				Streams:          streams,
				Workers:          workers,
				CacheSlots:       fx.Bundle.NumModels(),
				CacheShards:      1,
				SwitchHysteresis: 2,
				Fleet:            device.UniformFleet(device.JetsonTX2NX, streams),
				Tracer:           tr,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer m.Close()
			prewarmCache(t, m.Cache(), fx.Bundle)
			got, err := m.ProcessStreams(streamFrames(t, streams, perStream), nil)
			if err != nil {
				t.Fatal(err)
			}
			return runDigest(t, fnv.New64a(), m, tr, got)
		},
	}
	for name, run := range fleets {
		t.Run(name, func(t *testing.T) {
			for _, workers := range fanOutWorkers {
				if got, want := run(workers), sharedOrderDigests[name]; got != want {
					t.Fatalf("workers %d: digest %s, want %s", workers, got, want)
				}
			}
		})
	}
}

// runDigest folds a run's results, stats and span sequence into h and
// returns its hex digest. The tracer must have retained every span.
func runDigest(t *testing.T, h hash.Hash64, m *core.MultiRuntime, tr *telemetry.Tracer, results [][]core.FrameResult) string {
	t.Helper()
	for s, frames := range results {
		for i, res := range frames {
			fmt.Fprintf(h, "%d %d %+v\n", s, i, res)
		}
	}
	fmt.Fprintf(h, "%+v\n", m.Stats())
	spans := tr.Snapshot()
	if int64(len(spans)) != tr.Total() {
		t.Fatalf("tracer kept %d of %d spans", len(spans), tr.Total())
	}
	for _, sp := range spans {
		fmt.Fprintf(h, "%d %d %s %d %d %t %t\n", sp.Stream, sp.Seq, sp.Stage, sp.Model, int64(sp.Dur), sp.Hit, sp.Degraded)
	}
	return fmt.Sprintf("%016x", h.Sum64())
}
