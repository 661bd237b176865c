package core_test

import (
	"testing"
	"time"

	"anole/internal/core"
	"anole/internal/netsim"
	"anole/internal/prefetch"
	"anole/internal/synth"
	"anole/internal/testutil"
	"anole/internal/xrand"
)

// linkPrefetchConfig builds a prefetch.Config over a fresh simulated
// link with the given netsim config, sized for the fixture bundle.
func linkPrefetchConfig(t *testing.T, b *core.Bundle, net netsim.Config, topK int) *prefetch.Config {
	t.Helper()
	link, err := netsim.NewLink(net, xrand.New(99))
	if err != nil {
		t.Fatal(err)
	}
	lf, err := prefetch.NewLinkFetcher(link, core.PrefetchModels(b), 100*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	return &prefetch.Config{Fetcher: lf, TopK: topK}
}

func TestRuntimePrefetchServesDesiredAfterDemandFetch(t *testing.T) {
	fx := testutil.Shared(t)
	rt, err := core.NewRuntime(fx.Bundle, core.RuntimeConfig{
		CacheSlots: 3,
		Prefetch:   linkPrefetchConfig(t, fx.Bundle, netsim.DefaultConfig(1), 2),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	if rt.Prefetcher() == nil {
		t.Fatal("no scheduler attached")
	}
	frames := fx.Corpus.Frames(synth.Test)
	for _, f := range frames[:80] {
		res, err := rt.ProcessFrame(f)
		if err != nil {
			t.Fatal(err)
		}
		// On an always-Good link every demand fetch succeeds, so the
		// desired model serves every frame — cold misses stall instead
		// of degrading to a fallback model.
		if res.Used != res.Desired {
			t.Fatalf("used %d, desired %d", res.Used, res.Desired)
		}
		if res.FetchStall > 0 && res.Latency < res.FetchStall {
			t.Fatalf("latency %v below fetch stall %v", res.Latency, res.FetchStall)
		}
	}
	st := rt.Stats()
	if st.ColdMisses == 0 {
		t.Fatal("no cold misses recorded (cache starts empty)")
	}
	if st.FetchStall <= 0 {
		t.Fatal("cold misses recorded but no fetch stall")
	}
	ps := rt.Prefetcher().Stats()
	if ps.DemandFetches != int64(st.ColdMisses) {
		t.Fatalf("demand fetches %d, cold misses %d", ps.DemandFetches, st.ColdMisses)
	}
	if ps.Observations != int64(st.Switches) {
		t.Fatalf("observations %d, switches %d", ps.Observations, st.Switches)
	}
}

func TestRuntimeWithoutPrefetchUnchanged(t *testing.T) {
	fx := testutil.Shared(t)
	rt, err := core.NewRuntime(fx.Bundle, core.RuntimeConfig{CacheSlots: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close() // must be a no-op
	if rt.Prefetcher() != nil {
		t.Fatal("scheduler attached without config")
	}
	frames := fx.Corpus.Frames(synth.Test)
	for _, f := range frames[:40] {
		res, err := rt.ProcessFrame(f)
		if err != nil {
			t.Fatal(err)
		}
		if res.FetchStall != 0 {
			t.Fatalf("fetch stall %v without a link", res.FetchStall)
		}
	}
	st := rt.Stats()
	if st.ColdMisses != 0 || st.FetchStall != 0 {
		t.Fatalf("link counters moved without a link: %+v", st)
	}
}

func TestRuntimePrefetchValidation(t *testing.T) {
	fx := testutil.Shared(t)
	// A Prefetch config without a fetcher must be rejected.
	if _, err := core.NewRuntime(fx.Bundle, core.RuntimeConfig{
		Prefetch: &prefetch.Config{},
	}); err == nil {
		t.Fatal("prefetch config without fetcher accepted")
	}
}

func TestRuntimeCloseDetachesScheduler(t *testing.T) {
	fx := testutil.Shared(t)
	rt, err := core.NewRuntime(fx.Bundle, core.RuntimeConfig{
		CacheSlots: 3,
		Prefetch:   linkPrefetchConfig(t, fx.Bundle, netsim.DefaultConfig(1), 2),
	})
	if err != nil {
		t.Fatal(err)
	}
	frames := fx.Corpus.Frames(synth.Test)
	if _, err := rt.ProcessFrame(frames[0]); err != nil {
		t.Fatal(err)
	}
	rt.Close()
	if rt.Prefetcher() != nil {
		t.Fatal("scheduler still attached after Close")
	}
	// The runtime keeps serving frames, link-free.
	res, err := rt.ProcessFrame(frames[1])
	if err != nil {
		t.Fatal(err)
	}
	if res.FetchStall != 0 {
		t.Fatalf("fetch stall %v after Close", res.FetchStall)
	}
}

// TestMultiRuntimePrefetchShared drives several streams over one shared
// scheduler and link; run with -race.
func TestMultiRuntimePrefetchShared(t *testing.T) {
	fx := testutil.Shared(t)
	m, err := core.NewMultiRuntime(fx.Bundle, core.MultiRuntimeConfig{
		Streams:    4,
		CacheSlots: 4,
		Prefetch:   linkPrefetchConfig(t, fx.Bundle, netsim.DefaultConfig(0.9), 2),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if m.Prefetcher() == nil {
		t.Fatal("no shared scheduler")
	}
	streams := streamFrames(t, 4, 60)
	if _, err := m.ProcessStreams(streams, nil); err != nil {
		t.Fatal(err)
	}
	agg := m.Stats()
	if agg.ColdMisses == 0 {
		t.Fatal("no cold misses across streams")
	}
	sched := m.Prefetcher()
	ps := sched.Stats()
	if ps.DemandFetches+ps.DemandFailures != int64(agg.ColdMisses) {
		t.Fatalf("demand fetches %d (+%d failed), cold misses %d",
			ps.DemandFetches, ps.DemandFailures, agg.ColdMisses)
	}
	m.Close()
	// Close cancels every pending background flight, so the counters
	// must balance.
	ps = sched.Stats()
	if ps.Completed+ps.Cancelled+ps.Failed != ps.Issued {
		t.Fatalf("unsettled flights after Close: %+v", ps)
	}
}
