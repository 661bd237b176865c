package adapt

// Chaos suite for the adaptation loop: the device→cloud→device path is
// attacked at each hop — reports lost to a flapping uplink, candidate
// payloads arriving with corrupt digests, and a distribution outage mid-
// canary — and the rollout contract must hold: nothing unverified is
// ever promoted, a rejected or rolled-back generation leaves the fleet
// and the repository exactly where they were (bit-for-bit), and the loop
// recovers once the chaos clears.
//
// CI runs these under -race across a fixed seed matrix via
// ANOLE_CHAOS_SEED; the assertions are seed-independent (the traffic
// changes, the contract does not). The fault schedules themselves are
// scripted, not sampled, so every scenario replays identically.

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"anole/internal/breaker"
	"anole/internal/core"
	"anole/internal/netsim"
	"anole/internal/prefetch"
	"anole/internal/repo"
	"anole/internal/telemetry"
	"anole/internal/testutil"
)

// adaptChaosSeed is the traffic seed, overridable so CI can matrix over
// several schedules (same variable as the root chaos suite).
func adaptChaosSeed() uint64 {
	if v := os.Getenv("ANOLE_CHAOS_SEED"); v != "" {
		if n, err := strconv.ParseUint(v, 10, 64); err == nil {
			return n
		}
	}
	return 7
}

// TestAdaptChaosLossyUplinkDelivers scripts the control-plane link down
// for the first three control points: every early report transfer fails,
// the reports stay queued in emission order, and once the link recovers
// they all arrive — the retrain happens late, but it happens, and the
// canary still promotes.
func TestAdaptChaosLossyUplinkDelivers(t *testing.T) {
	fx := testutil.Shared(t)
	seed := adaptChaosSeed()

	srv, err := repo.NewServer(fx.Bundle)
	if err != nil {
		t.Fatal(err)
	}
	ctrl, err := NewController(fx.Bundle, srv, testControllerConfig(fx, seed))
	if err != nil {
		t.Fatal(err)
	}
	mrt, err := core.NewMultiRuntime(fx.Bundle, core.MultiRuntimeConfig{Streams: 2, CacheSlots: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer mrt.Close()
	// Down for the first three Step calls (= the first three report
	// attempts), then clean forever.
	up := NewUplink(&scriptMedium{states: []netsim.LinkState{netsim.Down, netsim.Down, netsim.Down}})
	loop, err := NewLoop(mrt, LoopConfig{
		Drift:     DriftConfig{Window: 30, MinExemplars: 16, MaxExemplars: 48, Cooldown: 1},
		Rollout:   RolloutConfig{CanaryFrames: 60, MinF1Ratio: 0.25},
		Submitter: ctrl,
		Source:    NewServerSource(srv),
		Uplink:    up,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := loop.Run(driftStreams(t, fx, 240, seed), nil); err != nil {
		t.Fatal(err)
	}
	st := loop.Stats()
	if st.ReportFailures != 3 || up.Failed() != 3 {
		t.Fatalf("scripted outage should cost exactly 3 transfers: %+v (uplink failed %d)", st, up.Failed())
	}
	if st.ReportsSent < 2 || up.Sent() != st.ReportsSent || up.Bytes() != st.ReportBytes || st.ReportBytes <= 0 {
		t.Fatalf("queued reports not delivered after recovery: %+v (uplink sent %d, bytes %d)",
			st, up.Sent(), up.Bytes())
	}
	if st.Promotions != 1 || st.Rollbacks != 0 || st.RejectedCandidates != 0 || st.FleetGeneration != 2 {
		t.Fatalf("loop did not recover to a promotion: %+v", st)
	}
	if srv.Generation() != 2 {
		t.Fatalf("repository at generation %d", srv.Generation())
	}
}

// TestAdaptChaosCorruptDigestNeverPromotes serves candidate payloads
// whose claimed digest does not match the bytes. Verification must
// reject every lying candidate before any stream serves it, and the
// rejection must roll the repository back to the incumbent bit-for-bit.
// Once the source turns honest, the loop recovers to a real promotion.
func TestAdaptChaosCorruptDigestNeverPromotes(t *testing.T) {
	fx := testutil.Shared(t)
	seed := adaptChaosSeed()

	run := func(t *testing.T, lies int, frames int) (*loopHarness, []byte, LoopStats) {
		t.Helper()
		h := newLoopHarness(t, fx, seed, 0.5, nil)
		t.Cleanup(func() { h.mrt.Close() })
		seedBlob := append([]byte(nil), h.srv.BundleBytes()...)
		// Rebuild the loop with the lying source in front of the server.
		loop, err := NewLoop(h.mrt, LoopConfig{
			Drift:     DriftConfig{Window: 30, MinExemplars: 16, MaxExemplars: 48, Cooldown: 1},
			Rollout:   RolloutConfig{CanaryFrames: 60, MinF1Ratio: 0.25},
			Submitter: h.ctrl,
			Source:    &flakySource{inner: NewServerSource(h.srv), lies: lies},
			Metrics:   h.reg,
		})
		if err != nil {
			t.Fatal(err)
		}
		h.loop = loop
		if _, err := loop.Run(driftStreams(t, fx, frames, seed), nil); err != nil {
			t.Fatal(err)
		}
		return h, seedBlob, loop.Stats()
	}

	t.Run("persistent_corruption", func(t *testing.T) {
		h, seedBlob, st := run(t, 1<<30, 240)
		if st.RejectedCandidates < 2 {
			t.Fatalf("persistent corruption barely bit: %+v", st)
		}
		if st.CanaryStarts != 0 || st.Promotions != 0 || st.GenerationsApplied != 0 {
			t.Fatalf("an unverified candidate reached a stream: %+v", st)
		}
		if st.FleetGeneration != 1 || h.loop.FleetBundle() != fx.Bundle {
			t.Fatalf("fleet left the incumbent generation: %+v", st)
		}
		for i := 0; i < h.mrt.NumStreams(); i++ {
			if h.mrt.StreamBundle(i) != fx.Bundle {
				t.Fatalf("stream %d serving an unverified bundle", i)
			}
		}
		if h.srv.Generation() != 1 {
			t.Fatalf("repository at generation %d after rejections", h.srv.Generation())
		}
		if !bytes.Equal(h.srv.BundleBytes(), seedBlob) {
			t.Fatal("rejection rollback did not restore the incumbent bit-for-bit")
		}
		if err := telemetry.ValidateScheme(h.reg.Gather()); err != nil {
			t.Fatalf("metric scheme: %v", err)
		}
	})

	t.Run("transient_corruption_recovers", func(t *testing.T) {
		h, _, st := run(t, 1, 240)
		if st.RejectedCandidates != 1 {
			t.Fatalf("single lie should cost one rejection: %+v", st)
		}
		if st.Promotions != 1 || st.FleetGeneration <= 2 {
			t.Fatalf("loop did not recover past the corrupt candidate: %+v", st)
		}
		if h.srv.Generation() != st.FleetGeneration {
			t.Fatalf("repository at %d, fleet at %d", h.srv.Generation(), st.FleetGeneration)
		}
	})
}

// outageFetcher serves model bytes instantly until beginOutage, then
// fails every fetch: the model-distribution path dies wholesale. It
// serves demand fetches only; a background start is refused.
type outageFetcher struct {
	mu     sync.Mutex
	down   bool
	denied int64
}

func (f *outageFetcher) beginOutage() {
	f.mu.Lock()
	f.down = true
	f.mu.Unlock()
}

func (f *outageFetcher) fetch(name string) (int64, time.Duration, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if !f.down {
		return 64 << 10, 0, nil
	}
	f.denied++
	return 0, 0, fmt.Errorf("distribution outage: %s unreachable", name)
}

func (f *outageFetcher) Tick() {}

func (f *outageFetcher) StartBackground(name string, _ func(int64, error)) (func() bool, error) {
	return nil, fmt.Errorf("background fetch of %s not served", name)
}

func (f *outageFetcher) FetchModelNow(ctx context.Context, name string) (int64, time.Duration, error) {
	return f.fetch(name)
}

// TestAdaptChaosOutageMidCanaryRollsBack kills the model-distribution
// transport at the exact moment the candidate deploys to the canary
// stream (the RegisterModels hook fires between verification and the
// bundle swap): demand fetches start failing fleet-wide, the circuit
// breaker opens during the canary window, and the rollout must roll
// back on the breaker guard — leaving fleet and repository exactly on
// the incumbent.
func TestAdaptChaosOutageMidCanaryRollsBack(t *testing.T) {
	fx := testutil.Shared(t)
	seed := adaptChaosSeed()

	srv, err := repo.NewServer(fx.Bundle)
	if err != nil {
		t.Fatal(err)
	}
	ctrl, err := NewController(fx.Bundle, srv, testControllerConfig(fx, seed))
	if err != nil {
		t.Fatal(err)
	}
	of := &outageFetcher{}
	mrt, err := core.NewMultiRuntime(fx.Bundle, core.MultiRuntimeConfig{
		Streams: 2,
		// Two slots for a six-model repertoire: scene switches miss the
		// cache constantly, so the outage is felt within a few frames.
		CacheSlots: 2,
		Prefetch: &prefetch.Config{
			Fetcher: of,
			TopK:    -1, // demand path only: the outage hits the critical fetch
			Breaker: breaker.New(breaker.Config{FailureThreshold: 1, Cooldown: time.Hour}),
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer mrt.Close()
	seedBlob := append([]byte(nil), srv.BundleBytes()...)
	loop, err := NewLoop(mrt, LoopConfig{
		Drift:     DriftConfig{Window: 30, MinExemplars: 16, MaxExemplars: 48, Cooldown: 1},
		Rollout:   RolloutConfig{CanaryFrames: 60, MinF1Ratio: 0.25},
		Submitter: ctrl,
		Source:    NewServerSource(srv),
		RegisterModels: func([]prefetch.Model) error {
			of.beginOutage() // the link dies as the canary deployment begins
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := loop.Run(driftStreams(t, fx, 150, seed), nil); err != nil {
		t.Fatal(err)
	}
	st := loop.Stats()
	if of.denied == 0 || mrt.Prefetcher().Stats().BreakerOpens == 0 {
		t.Fatalf("outage never bit: %d denied fetches, %d breaker opens",
			of.denied, mrt.Prefetcher().Stats().BreakerOpens)
	}
	if st.CanaryStarts != 1 || st.Rollbacks != 1 || st.Promotions != 0 {
		t.Fatalf("mid-canary outage not rolled back: %+v", st)
	}
	if reason := loop.Rollout().LastVerdict().Reason; !strings.Contains(reason, "breaker") {
		t.Fatalf("rollback reason %q, want the breaker guard", reason)
	}
	if st.FleetGeneration != 1 || loop.FleetBundle() != fx.Bundle {
		t.Fatalf("fleet left the incumbent: %+v", st)
	}
	for i := 0; i < mrt.NumStreams(); i++ {
		if mrt.StreamBundle(i) != fx.Bundle {
			t.Fatalf("stream %d not restored to the incumbent", i)
		}
	}
	if srv.Generation() != 1 {
		t.Fatalf("repository at generation %d after rollback", srv.Generation())
	}
	if !bytes.Equal(srv.BundleBytes(), seedBlob) {
		t.Fatal("rollback did not restore the incumbent bit-for-bit")
	}
}
