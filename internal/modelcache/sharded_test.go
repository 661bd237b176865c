package modelcache

import (
	"fmt"
	"sync"
	"testing"

	"anole/internal/xrand"
)

func TestNewShardedValidation(t *testing.T) {
	if _, err := NewSharded(0, LFU, 4); err == nil {
		t.Fatal("zero capacity accepted")
	}
	if _, err := NewSharded(-3, LRU, 1); err == nil {
		t.Fatal("negative capacity accepted")
	}
	if _, err := NewSharded(4, Policy(99), 2); err == nil {
		t.Fatal("unknown policy accepted")
	}
}

func TestShardedCapacityDistribution(t *testing.T) {
	// 7 slots over 3 shards → 3+2+2; shard count clamps to capacity.
	s := MustNewSharded(7, LFU, 3)
	if s.Capacity() != 7 || s.NumShards() != 3 {
		t.Fatalf("capacity %d shards %d", s.Capacity(), s.NumShards())
	}
	var total int
	for _, sh := range s.shards {
		c := sh.c.Capacity()
		if c < 2 || c > 3 {
			t.Fatalf("uneven shard capacity %d", c)
		}
		total += c
	}
	if total != 7 {
		t.Fatalf("shard capacities sum to %d, want 7", total)
	}

	if s := MustNewSharded(2, FIFO, 16); s.NumShards() != 2 {
		t.Fatalf("shards not clamped to capacity: %d", s.NumShards())
	}
	if s := MustNewSharded(100, LRU, 0); s.NumShards() != 8 {
		t.Fatalf("default shard count %d, want 8", s.NumShards())
	}
}

func TestShardedRequestRejectsBadSize(t *testing.T) {
	s := MustNewSharded(4, LFU, 2)
	if _, _, err := s.Request("m", 0); err == nil {
		t.Fatal("zero size accepted")
	}
	if _, _, err := s.Request("m", -1); err == nil {
		t.Fatal("negative size accepted")
	}
	// An entry larger than its shard's slice of the capacity is
	// rejected, and the failed admission still counts as a miss.
	if _, _, err := s.Request("m", 3); err == nil {
		t.Fatal("oversized entry accepted")
	}
	st := s.Stats()
	if st.Hits+st.Misses != s.Lookups() || s.Lookups() != 1 {
		t.Fatalf("counters unbalanced after rejection: %+v lookups %d", st, s.Lookups())
	}
}

// TestShardedSingleShardMatchesCache replays one random request sequence
// through a 1-shard Sharded cache and the bare policy engine: every
// hit/miss, eviction list and counter must agree, so the shard lock and
// the atomic counters add nothing to the policy's behavior.
func TestShardedSingleShardMatchesCache(t *testing.T) {
	for _, policy := range []Policy{LFU, LRU, FIFO} {
		t.Run(policy.String(), func(t *testing.T) {
			plain := mustNewCache(3, policy)
			sharded := MustNewSharded(3, policy, 1)
			rng := xrand.NewLabeled(7, "sharded-equivalence")
			for i := 0; i < 2000; i++ {
				key := fmt.Sprintf("m%d", rng.Intn(8))
				h1, ev1, err1 := plain.Request(key, 1)
				h2, ev2, err2 := sharded.Request(key, 1)
				if h1 != h2 || (err1 == nil) != (err2 == nil) || len(ev1) != len(ev2) {
					t.Fatalf("step %d diverged: (%v,%v,%v) vs (%v,%v,%v)", i, h1, ev1, err1, h2, ev2, err2)
				}
				for j := range ev1 {
					if ev1[j] != ev2[j] {
						t.Fatalf("step %d eviction order diverged: %v vs %v", i, ev1, ev2)
					}
				}
			}
			if plain.Stats() != sharded.Stats() {
				t.Fatalf("stats diverged: %+v vs %+v", plain.Stats(), sharded.Stats())
			}
			p, s := plain.Keys(), sharded.Keys()
			if len(p) != len(s) {
				t.Fatalf("resident sets differ: %v vs %v", p, s)
			}
			for i := range p {
				if p[i] != s[i] {
					t.Fatalf("resident sets differ: %v vs %v", p, s)
				}
			}
		})
	}
}

// TestShardedConcurrentHammer is the race/stress harness: goroutines
// hammer Get/Admit (Contains/Touch/Request) plus occasional Remove
// across every policy, while a checker goroutine reads the merged views.
// After the storm: residency never exceeds capacity, the atomic counters
// balance (hits+misses == lookups == total requests), and the merged
// Stats equal the per-shard sums. Run with -race.
func TestShardedConcurrentHammer(t *testing.T) {
	const (
		goroutines = 8
		opsPerG    = 3000
		capacity   = 6
		shards     = 4
		keySpace   = 24
	)
	for _, policy := range []Policy{LFU, LRU, FIFO} {
		t.Run(policy.String(), func(t *testing.T) {
			s := MustNewSharded(capacity, policy, shards)

			stop := make(chan struct{})
			var checker sync.WaitGroup
			checker.Add(1)
			go func() {
				defer checker.Done()
				for {
					select {
					case <-stop:
						return
					default:
					}
					if used := s.Used(); used > s.Capacity() {
						// t.Errorf is safe from other goroutines.
						t.Errorf("capacity exceeded mid-flight: used %d > %d", used, s.Capacity())
						return
					}
					s.Len()
					s.Keys()
					s.MissRate()
					s.Stats()
				}
			}()

			var wg sync.WaitGroup
			for g := 0; g < goroutines; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					rng := xrand.NewLabeled(uint64(g), "sharded-hammer")
					for i := 0; i < opsPerG; i++ {
						key := fmt.Sprintf("m%d", rng.Intn(keySpace))
						switch rng.Intn(10) {
						case 0:
							s.Contains(key)
						case 1:
							s.Touch(key)
						case 2:
							s.Remove(key)
						case 3:
							s.Freq(key)
						default:
							if _, _, err := s.Request(key, 1); err != nil {
								t.Errorf("request %q: %v", key, err)
								return
							}
						}
					}
				}(g)
			}
			wg.Wait()
			close(stop)
			checker.Wait()

			if used := s.Used(); used > s.Capacity() {
				t.Fatalf("capacity exceeded at rest: used %d > %d", used, s.Capacity())
			}
			if n := s.Len(); n > s.Capacity() {
				t.Fatalf("more entries than slots: %d > %d", n, s.Capacity())
			}
			st := s.Stats()
			if st.Hits+st.Misses != s.Lookups() {
				t.Fatalf("hits %d + misses %d != lookups %d", st.Hits, st.Misses, s.Lookups())
			}
			var perShard Stats
			for _, sh := range shardStats(s) {
				perShard.Hits += sh.Hits
				perShard.Misses += sh.Misses
				perShard.Evictions += sh.Evictions
			}
			if perShard != st {
				t.Fatalf("merged stats %+v != per-shard sum %+v", st, perShard)
			}
			if got, want := s.MissRate(), float64(st.Misses)/float64(st.Hits+st.Misses); got != want {
				t.Fatalf("miss rate %v, want %v", got, want)
			}
		})
	}
}

// TestShardedConcurrentDisjointKeys drives each goroutine at its own key
// so every request after the first admission must hit: exact per-key
// counters survive the concurrency.
func TestShardedConcurrentDisjointKeys(t *testing.T) {
	const goroutines, ops = 6, 500
	s := MustNewSharded(goroutines, LFU, 3)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			key := fmt.Sprintf("own-%d", g)
			for i := 0; i < ops; i++ {
				if _, _, err := s.Request(key, 1); err != nil {
					t.Errorf("request %q: %v", key, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	st := s.Stats()
	// Each goroutine misses once (first admission) and hits thereafter.
	// Disjoint keys can share a shard, but capacity ≥ keys per shard is
	// not guaranteed — so allow evictions, and check the balance only.
	if st.Hits+st.Misses != int64(goroutines*ops) {
		t.Fatalf("lost requests: %+v, want %d total", st, goroutines*ops)
	}
	if s.Lookups() != int64(goroutines*ops) {
		t.Fatalf("lookups %d, want %d", s.Lookups(), goroutines*ops)
	}
	for g := 0; g < goroutines; g++ {
		key := fmt.Sprintf("own-%d", g)
		if s.Contains(key) && s.Freq(key) < 1 {
			t.Fatalf("resident key %q has zero frequency", key)
		}
	}
}

// shardStats returns each shard's own counters, read under the shard
// locks.
func shardStats(s *Sharded) []Stats {
	out := make([]Stats, len(s.shards))
	for i, sh := range s.shards {
		sh.mu.Lock()
		out[i] = sh.c.Stats()
		sh.mu.Unlock()
	}
	return out
}

// shardLenSum is the resident count read shard by shard under each
// shard's lock — what Len summed before it became one atomic count.
func shardLenSum(s *Sharded) int {
	var n int
	for _, sh := range s.shards {
		sh.mu.Lock()
		n += sh.c.Len()
		sh.mu.Unlock()
	}
	return n
}

// TestShardedLenMatchesShardCounts pins Len's atomic entry count to the
// per-shard entry counts: after random Request, Prefetch, Warm, Remove
// and watermark-sweep sequences run by concurrent goroutines (with a
// reader calling Len throughout, for -race), Len equals the shard sum.
func TestShardedLenMatchesShardCounts(t *testing.T) {
	const (
		goroutines = 4
		opsPerG    = 2000
		keySpace   = 24
	)
	s := MustNewSharded(9, LFU, 4)
	s.SetSizer(func(key string) int64 { return int64(len(key)) * 10 })
	s.SetByteCapacity(200)
	stop := make(chan struct{})
	var reader sync.WaitGroup
	reader.Add(1)
	go func() {
		defer reader.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if n := s.Len(); n < 0 || n > s.Capacity() {
				t.Errorf("Len %d outside [0, %d] mid-flight", n, s.Capacity())
				return
			}
		}
	}()
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := xrand.NewLabeled(uint64(g), "sharded-len")
			for i := 0; i < opsPerG; i++ {
				key := fmt.Sprintf("m%d", rng.Intn(keySpace))
				switch rng.Intn(10) {
				case 0, 1:
					s.Remove(key)
				case 2, 3:
					s.Prefetch(key, 1)
				case 4:
					s.Warm(key, 1, rng.Intn(4))
				case 5:
					s.SetWatermark(0.5)
					s.SweepToWatermark()
					s.SetWatermark(1)
				default:
					s.Request(key, 1)
				}
			}
		}(g)
	}
	wg.Wait()
	close(stop)
	reader.Wait()
	if got, want := s.Len(), shardLenSum(s); got != want {
		t.Fatalf("Len %d, per-shard counts sum to %d", got, want)
	}
	if got, want := s.Len(), len(s.Keys()); got != want {
		t.Fatalf("Len %d, %d resident keys", got, want)
	}

	// One goroutine, one operation at a time: Len tracks the shard sum
	// after every step.
	seq := MustNewSharded(5, LRU, 3)
	rng := xrand.NewLabeled(9, "sharded-len-seq")
	for i := 0; i < 500; i++ {
		key := fmt.Sprintf("m%d", rng.Intn(12))
		switch rng.Intn(4) {
		case 0:
			seq.Remove(key)
		case 1:
			seq.Prefetch(key, 1)
		default:
			seq.Request(key, 1)
		}
		if got, want := seq.Len(), shardLenSum(seq); got != want {
			t.Fatalf("step %d: Len %d, per-shard counts sum to %d", i, got, want)
		}
	}
}
