package modelcache

import (
	"sync"
	"testing"
)

// TestPrefetchAdmitsWithoutLookup checks that a prefetch neither hits
// nor misses, and that the entry's first real use is counted as a
// prefetch hit.
func TestPrefetchAdmitsWithoutLookup(t *testing.T) {
	c := mustNewCache(2, LFU)
	admitted, evicted, err := c.Prefetch("a", 1)
	if err != nil || !admitted || len(evicted) != 0 {
		t.Fatalf("prefetch a: admitted=%v evicted=%v err=%v", admitted, evicted, err)
	}
	st := c.Stats()
	if st.Hits != 0 || st.Misses != 0 {
		t.Fatalf("prefetch moved lookup counters: %+v", st)
	}
	if st.Prefetches != 1 {
		t.Fatalf("prefetches %d", st.Prefetches)
	}
	// First use: a Request hit that doubles as the prefetch hit.
	hit, _, err := c.Request("a", 1)
	if err != nil || !hit {
		t.Fatalf("request after prefetch: hit=%v err=%v", hit, err)
	}
	st = c.Stats()
	if st.PrefetchHits != 1 {
		t.Fatalf("prefetch hits %d", st.PrefetchHits)
	}
	// Second use is an ordinary hit, not another prefetch hit.
	if hit, _, _ := c.Request("a", 1); !hit {
		t.Fatal("second request missed")
	}
	if st := c.Stats(); st.PrefetchHits != 1 {
		t.Fatalf("prefetch hits after reuse %d", st.PrefetchHits)
	}
}

// TestPrefetchResidentKeyIsNoop: prefetching a model that is already
// cached must not touch it or count anything.
func TestPrefetchResidentKeyIsNoop(t *testing.T) {
	c := mustNewCache(2, LFU)
	if _, _, err := c.Request("a", 1); err != nil {
		t.Fatal(err)
	}
	freq := c.Freq("a")
	admitted, _, err := c.Prefetch("a", 1)
	if err != nil || admitted {
		t.Fatalf("re-prefetch of resident: admitted=%v err=%v", admitted, err)
	}
	if c.Freq("a") != freq {
		t.Fatal("prefetch of resident key recorded a use")
	}
	if st := c.Stats(); st.Prefetches != 0 {
		t.Fatalf("prefetches %d", st.Prefetches)
	}
}

// TestPrefetchPinProtectsFirstUseWindow: a pinned (unused, in-window)
// prefetched entry must survive on-demand eviction pressure while an
// unpinned victim exists.
func TestPrefetchPinProtectsFirstUseWindow(t *testing.T) {
	c := mustNewCache(2, LFU)
	// "cold" is an ordinary entry with low frequency; "warm" is pinned.
	if _, _, err := c.Request("cold", 1); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.Prefetch("warm", 1); err != nil {
		t.Fatal(err)
	}
	// "warm" has freq 0 (< cold's 1), so plain LFU would evict it; the
	// pin must divert eviction to "cold".
	_, evicted, err := c.Request("newcomer", 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(evicted) != 1 || evicted[0] != "cold" {
		t.Fatalf("evicted %v, want [cold]", evicted)
	}
	if !c.Contains("warm") {
		t.Fatal("pinned prefetched entry was evicted")
	}
}

// TestPrefetchPinExpires: once the first-use window lapses, an unused
// prefetched entry becomes an ordinary (and, at freq 0, prime) victim
// and its eviction counts as wasted.
func TestPrefetchPinExpires(t *testing.T) {
	c := mustNewCache(2, LFU)
	c.SetPinWindow(2)
	if _, _, err := c.Prefetch("warm", 1); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.Request("hot", 1); err != nil {
		t.Fatal(err)
	}
	// Burn the window: each touch advances the logical clock.
	c.Touch("hot")
	c.Touch("hot")
	_, evicted, err := c.Request("newcomer", 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(evicted) != 1 || evicted[0] != "warm" {
		t.Fatalf("evicted %v, want [warm]", evicted)
	}
	st := c.Stats()
	if st.PrefetchWasted != 1 {
		t.Fatalf("wasted %d", st.PrefetchWasted)
	}
	if st.PrefetchHits != 0 {
		t.Fatalf("phantom prefetch hit: %+v", st)
	}
}

// TestPrefetchBestEffortWhenAllPinned: a prefetch that can only make
// room by displacing pinned entries must decline, while an on-demand
// Request in the same state falls back to evicting a pinned entry.
func TestPrefetchBestEffortWhenAllPinned(t *testing.T) {
	c := mustNewCache(2, LFU)
	for _, k := range []string{"p1", "p2"} {
		if admitted, _, err := c.Prefetch(k, 1); err != nil || !admitted {
			t.Fatalf("prefetch %s: %v", k, err)
		}
	}
	admitted, evicted, err := c.Prefetch("p3", 1)
	if err != nil {
		t.Fatal(err)
	}
	if admitted || len(evicted) != 0 {
		t.Fatalf("prefetch displaced a pinned entry: admitted=%v evicted=%v", admitted, evicted)
	}
	// On-demand admission must still succeed (pin is soft for Request).
	hit, evicted, err := c.Request("demand", 1)
	if err != nil {
		t.Fatal(err)
	}
	if hit || len(evicted) != 1 {
		t.Fatalf("demand request: hit=%v evicted=%v", hit, evicted)
	}
	if !c.Contains("demand") {
		t.Fatal("demand entry not admitted")
	}
	if st := c.Stats(); st.PrefetchWasted != 1 {
		t.Fatalf("wasted %d after pinned eviction", st.PrefetchWasted)
	}
}

// TestPrefetchOversizedRejected mirrors Request's size validation.
func TestPrefetchOversizedRejected(t *testing.T) {
	c := mustNewCache(2, LFU)
	if _, _, err := c.Prefetch("big", 3); err == nil {
		t.Fatal("oversized prefetch accepted")
	}
	if _, _, err := c.Prefetch("zero", 0); err == nil {
		t.Fatal("zero-size prefetch accepted")
	}
}

// TestShardedPrefetchCounters drives concurrent prefetches and requests
// through a Sharded cache and checks the merged counters add up; run
// with -race to prove the locking.
func TestShardedPrefetchCounters(t *testing.T) {
	s := MustNewSharded(8, LFU, 4)
	keys := []string{"m0", "m1", "m2", "m3", "m4", "m5"}
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(off int) {
			defer wg.Done()
			for round := 0; round < 50; round++ {
				k := keys[(off+round)%len(keys)]
				if off%2 == 0 {
					if _, _, err := s.Prefetch(k, 1); err != nil {
						t.Errorf("prefetch %s: %v", k, err)
						return
					}
				} else if _, _, err := s.Request(k, 1); err != nil {
					t.Errorf("request %s: %v", k, err)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	st := s.Stats()
	if st.Hits+st.Misses != s.Lookups() {
		t.Fatalf("lookups %d != hits %d + misses %d", s.Lookups(), st.Hits, st.Misses)
	}
	if st.PrefetchHits > st.Prefetches {
		t.Fatalf("more prefetch hits (%d) than prefetches (%d)", st.PrefetchHits, st.Prefetches)
	}
	// Per-shard prefetch counters must sum to the merged view.
	var pf, ph, pw int64
	for _, sh := range shardStats(s) {
		pf += sh.Prefetches
		ph += sh.PrefetchHits
		pw += sh.PrefetchWasted
	}
	if pf != st.Prefetches || ph != st.PrefetchHits || pw != st.PrefetchWasted {
		t.Fatalf("shard prefetch counters (%d/%d/%d) != merged (%d/%d/%d)",
			pf, ph, pw, st.Prefetches, st.PrefetchHits, st.PrefetchWasted)
	}
}

func TestPrefetchNeverEvictsMostRecentlyUsed(t *testing.T) {
	// Under LFU a long-lived hot entry outranks the model serving the
	// current scene, so a naive speculative insert would evict the
	// server. Prefetch must pick the other victim — or decline.
	c := mustNewCache(2, LFU)
	for i := 0; i < 10; i++ {
		c.Request("old-hot", 1)
	}
	c.Request("current", 1) // freq 1, but most recently used
	admitted, evicted, err := c.Prefetch("next", 1)
	if err != nil {
		t.Fatal(err)
	}
	if !admitted {
		t.Fatal("prefetch declined with an evictable entry present")
	}
	if len(evicted) != 1 || evicted[0] != "old-hot" {
		t.Fatalf("evicted %v, want [old-hot]", evicted)
	}
	if !c.Contains("current") {
		t.Fatal("prefetch displaced the in-use model")
	}
	// With one slot the only resident entry is the in-use one, so a
	// prefetch can only decline.
	one := mustNewCache(1, LRU)
	one.Request("current", 1)
	admitted, _, err = one.Prefetch("next", 1)
	if err != nil || admitted {
		t.Fatalf("single-slot prefetch: admitted=%v err=%v", admitted, err)
	}
	if !one.Contains("current") {
		t.Fatal("single-slot prefetch displaced the in-use model")
	}
}

// TestPrefetchPinSurvivesEvictionSweep: a pinned prefetched entry must
// outlive a full eviction sweep — enough newcomer admissions to churn
// every other slot several times over — and only become a victim once
// its first-use window has lapsed.
func TestPrefetchPinSurvivesEvictionSweep(t *testing.T) {
	c := mustNewCache(4, LFU)
	c.SetPinWindow(100)
	if _, _, err := c.Prefetch("pinned", 1); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"a", "b", "c"} {
		if _, _, err := c.Request(k, 1); err != nil {
			t.Fatal(err)
		}
	}
	// Sweep: 12 distinct newcomers, three full turnovers of the three
	// unpinned slots. The pin (freq 0, LFU's prime victim otherwise)
	// must divert every eviction.
	for i := 0; i < 12; i++ {
		_, evicted, err := c.Request(sweepKey(i), 1)
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range evicted {
			if v == "pinned" {
				t.Fatalf("sweep admission %d evicted the pinned entry", i)
			}
		}
		if !c.Contains("pinned") {
			t.Fatalf("pinned entry gone after sweep admission %d", i)
		}
	}
	if st := c.Stats(); st.PrefetchWasted != 0 {
		t.Fatalf("pinned entry counted wasted mid-window: %+v", st)
	}

	// Burn the rest of the window on an unrelated key; the pin expires
	// and the entry becomes an ordinary freq-0 victim.
	for i := 0; i < 100; i++ {
		c.Touch(sweepKey(11))
	}
	_, evicted, err := c.Request("closer", 1)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, v := range evicted {
		found = found || v == "pinned"
	}
	if !found {
		t.Fatalf("expired pin not evicted, evicted %v", evicted)
	}
	if st := c.Stats(); st.PrefetchWasted != 1 {
		t.Fatalf("expired unused prefetch must count wasted: %+v", st)
	}
}

func sweepKey(i int) string {
	return string(rune('k')) + string(rune('0'+i/10)) + string(rune('0'+i%10))
}
