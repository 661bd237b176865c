package modelcache

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"anole/internal/telemetry"
)

// Sharded is a thread-safe model cache for multi-stream serving: the
// capacity is partitioned across independent shards, each a policy
// engine guarded by its own mutex, and model keys are hashed to shards.
// Concurrent requests for different shards proceed in parallel; requests
// for the same shard serialize on that shard's lock only.
//
// The eviction policy is therefore approximate-global: each shard runs
// the configured policy over its own resident set, so a globally cold
// model can outlive a globally hot one that landed in a crowded shard.
// This is the standard sharding trade-off; the streams×slots benchmark
// at the repository root measures its cost on the paper's workload. The
// capacity bound, however, is exact: every shard enforces its slice of
// the capacity under its lock, so the summed residency never exceeds
// Capacity.
//
// Hit/miss/eviction/lookup counters live on the telemetry registry as
// atomic counters maintained outside the shard locks, giving Stats and
// MissRate a lock-free merged view (ShardStats exposes the exact
// per-shard breakdown) and /metrics the same numbers under the
// anole_modelcache_* names. Stats is a snapshot view over those
// handles, not a separate set of books.
type Sharded struct {
	shards   []*shard
	capacity int
	// entries is the resident model count over all shards. Every change
	// to a shard's entries folds into it under that shard's lock, so Len
	// is one atomic load.
	entries atomic.Int64

	lookups   *telemetry.Counter
	hits      *telemetry.Counter
	misses    *telemetry.Counter
	evictions *telemetry.Counter
	resident  *telemetry.Gauge
}

type shard struct {
	mu sync.Mutex
	c  *cache
}

// NewSharded returns a thread-safe cache of the given total capacity,
// split over shards (≤0 selects min(capacity, 8); values above capacity
// are clamped so every shard holds at least one size unit). Capacity is
// distributed as evenly as possible: the first capacity mod shards
// shards receive one extra unit. The cache's counters land in a private
// telemetry registry; use NewShardedMetrics to register them on a
// shared one instead.
func NewSharded(capacity int, policy Policy, shards int) (*Sharded, error) {
	return NewShardedMetrics(capacity, policy, shards, nil)
}

// NewShardedMetrics is NewSharded with the cache's counters registered
// on reg under the anole_modelcache_* names, so a shared registry
// exposes live cache behavior on /metrics. A nil reg keeps the counters
// in a private registry; either way Stats and MissRate read the same
// handles.
func NewShardedMetrics(capacity int, policy Policy, shards int, reg *telemetry.Registry) (*Sharded, error) {
	if capacity <= 0 {
		return nil, fmt.Errorf("modelcache: capacity %d", capacity)
	}
	if shards <= 0 {
		shards = 8
	}
	if shards > capacity {
		shards = capacity
	}
	if reg == nil {
		reg = telemetry.NewRegistry()
	}
	s := &Sharded{
		capacity: capacity,
		shards:   make([]*shard, shards),

		lookups:   reg.Counter("anole_modelcache_lookups_total", "Request calls with a valid size"),
		hits:      reg.Counter("anole_modelcache_hits_total", "Requests served by a resident model"),
		misses:    reg.Counter("anole_modelcache_misses_total", "Requests that had to admit the model"),
		evictions: reg.Counter("anole_modelcache_evictions_total", "Models evicted to make room"),
		resident:  reg.Gauge("anole_modelcache_resident_models", "Models currently cached across shards"),
	}
	base, extra := capacity/shards, capacity%shards
	for i := range s.shards {
		cap := base
		if i < extra {
			cap++
		}
		c, err := newCache(cap, policy)
		if err != nil {
			return nil, err
		}
		s.shards[i] = &shard{c: c}
	}
	return s, nil
}

// MustNewSharded is NewSharded that panics on error, for statically
// valid parameters.
func MustNewSharded(capacity int, policy Policy, shards int) *Sharded {
	s, err := NewSharded(capacity, policy, shards)
	if err != nil {
		panic(err)
	}
	return s
}

// shardFor hashes key to its shard (FNV-1a, allocation-free).
func (s *Sharded) shardFor(key string) *shard {
	const (
		offset32 = 2166136261
		prime32  = 16777619
	)
	h := uint32(offset32)
	for i := 0; i < len(key); i++ {
		h ^= uint32(key[i])
		h *= prime32
	}
	return s.shards[int(h%uint32(len(s.shards)))]
}

// Capacity returns the total configured capacity in size units.
func (s *Sharded) Capacity() int { return s.capacity }

// NumShards returns the shard count.
func (s *Sharded) NumShards() int { return len(s.shards) }

// Used returns the occupied size units summed over shards. Each shard is
// read under its lock, but the sum is not a single atomic snapshot; with
// concurrent writers it is a bound, not an instant.
func (s *Sharded) Used() int {
	var used int
	for _, sh := range s.shards {
		sh.mu.Lock()
		used += sh.c.Used()
		sh.mu.Unlock()
	}
	return used
}

// SetSizer installs the key→serialized-bytes function on every shard
// (see cache.SetSizer), re-measuring already-resident entries. Call it
// before concurrent traffic starts (e.g. at runtime construction);
// BytesUsed then tracks the exact resident model bytes.
func (s *Sharded) SetSizer(fn func(key string) int64) {
	for _, sh := range s.shards {
		sh.mu.Lock()
		sh.c.SetSizer(fn)
		sh.mu.Unlock()
	}
}

// BytesUsed returns the summed serialized bytes of resident models
// across shards (0 until SetSizer; same snapshot caveat as Used).
func (s *Sharded) BytesUsed() int64 {
	var total int64
	for _, sh := range s.shards {
		sh.mu.Lock()
		total += sh.c.BytesUsed()
		sh.mu.Unlock()
	}
	return total
}

// Len returns the number of cached models over all shards, without
// taking a lock.
func (s *Sharded) Len() int { return int(s.entries.Load()) }

// noteLen folds the change in sh's entry count since it held before
// entries into the cache-wide count and the resident gauge. The caller
// holds sh's lock.
func (s *Sharded) noteLen(sh *shard, before int) {
	if d := sh.c.Len() - before; d != 0 {
		s.entries.Add(int64(d))
		s.resident.Add(float64(d))
	}
}

// Contains reports whether key is cached, without recording a use.
func (s *Sharded) Contains(key string) bool {
	sh := s.shardFor(key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.c.Contains(key)
}

// Touch records a use of key and reports whether it was present. It does
// not move the lookup counters (mirroring cache.Touch).
func (s *Sharded) Touch(key string) bool {
	sh := s.shardFor(key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.c.Touch(key)
}

// Request behaves like cache.Request against key's shard: a hit touches
// the entry; a miss admits it, evicting victims within the shard until
// it fits. Entries larger than the shard's capacity slice are rejected
// with an error (with slot-sized models — size 1 — every shard accepts
// every model). Exactly one lookup, and one hit or one miss, is counted
// per call with a valid size, so Hits+Misses always equals Lookups.
func (s *Sharded) Request(key string, size int) (hit bool, evicted []string, err error) {
	if size <= 0 {
		return false, nil, fmt.Errorf("modelcache: size %d for %q", size, key)
	}
	sh := s.shardFor(key)
	sh.mu.Lock()
	n := sh.c.Len()
	hit, evicted, err = sh.c.Request(key, size)
	s.noteLen(sh, n)
	sh.mu.Unlock()
	s.lookups.Add(1)
	if hit {
		s.hits.Add(1)
	} else {
		s.misses.Add(1)
	}
	s.evictions.Add(int64(len(evicted)))
	return hit, evicted, err
}

// Prefetch behaves like cache.Prefetch against key's shard: a
// speculative admission that leaves the hit/miss counters alone, never
// displaces a pinned entry, and pins the new entry until its first use
// window expires. Safe to call from the prefetch scheduler's
// completions while other goroutines Request.
func (s *Sharded) Prefetch(key string, size int) (admitted bool, evicted []string, err error) {
	if size <= 0 {
		return false, nil, fmt.Errorf("modelcache: size %d for %q", size, key)
	}
	sh := s.shardFor(key)
	sh.mu.Lock()
	n := sh.c.Len()
	admitted, evicted, err = sh.c.Prefetch(key, size)
	s.noteLen(sh, n)
	sh.mu.Unlock()
	s.evictions.Add(int64(len(evicted)))
	return admitted, evicted, err
}

// SetByteCapacity distributes a total byte capacity across shards the
// same way slot capacity is distributed (even split, first shards take
// the remainder), so the summed resident bytes never exceed total.
// Like cache.SetByteCapacity it only binds while a sizer is installed;
// n <= 0 clears the bound on every shard.
func (s *Sharded) SetByteCapacity(total int64) {
	n := int64(len(s.shards))
	base, extra := total/n, total%n
	if total <= 0 {
		base, extra = 0, 0
	}
	for i, sh := range s.shards {
		slice := base
		if int64(i) < extra {
			slice++
		}
		sh.mu.Lock()
		sh.c.SetByteCapacity(slice)
		sh.mu.Unlock()
	}
}

// ByteCapacity returns the summed per-shard byte capacities (0 when
// unbounded).
func (s *Sharded) ByteCapacity() int64 {
	var total int64
	for _, sh := range s.shards {
		sh.mu.Lock()
		total += sh.c.ByteCapacity()
		sh.mu.Unlock()
	}
	return total
}

// SetWatermark sets the byte-ceiling fraction on every shard (see
// cache.SetWatermark).
func (s *Sharded) SetWatermark(frac float64) {
	for _, sh := range s.shards {
		sh.mu.Lock()
		sh.c.SetWatermark(frac)
		sh.mu.Unlock()
	}
}

// SweepToWatermark runs cache.SweepToWatermark on every shard and
// returns all evicted keys. Pinned entries are never evicted.
func (s *Sharded) SweepToWatermark() []string {
	var evicted []string
	for _, sh := range s.shards {
		sh.mu.Lock()
		n := sh.c.Len()
		ev := sh.c.SweepToWatermark()
		s.noteLen(sh, n)
		sh.mu.Unlock()
		evicted = append(evicted, ev...)
	}
	s.evictions.Add(int64(len(evicted)))
	return evicted
}

// Warm re-admits key into its shard from a restart checkpoint's
// residency manifest (see cache.Warm): best-effort, no eviction, no
// hit/miss accounting, LFU history seeded with freq.
func (s *Sharded) Warm(key string, size, freq int) bool {
	sh := s.shardFor(key)
	sh.mu.Lock()
	n := sh.c.Len()
	ok := sh.c.Warm(key, size, freq)
	s.noteLen(sh, n)
	sh.mu.Unlock()
	return ok
}

// SetPinWindow sets the prefetch first-use protection window on every
// shard (see cache.SetPinWindow).
func (s *Sharded) SetPinWindow(n int) {
	for _, sh := range s.shards {
		sh.mu.Lock()
		sh.c.SetPinWindow(n)
		sh.mu.Unlock()
	}
}

// Remove drops key from its shard, reporting whether it was present. It
// does not count as an eviction.
func (s *Sharded) Remove(key string) bool {
	sh := s.shardFor(key)
	sh.mu.Lock()
	n := sh.c.Len()
	removed := sh.c.Remove(key)
	s.noteLen(sh, n)
	sh.mu.Unlock()
	return removed
}

// Freq returns the recorded use count of key (0 when absent).
func (s *Sharded) Freq(key string) int {
	sh := s.shardFor(key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.c.Freq(key)
}

// Keys returns the cached keys across all shards, sorted
// lexicographically (same snapshot caveat as Used).
func (s *Sharded) Keys() []string {
	var keys []string
	for _, sh := range s.shards {
		sh.mu.Lock()
		keys = append(keys, sh.c.Keys()...)
		sh.mu.Unlock()
	}
	sort.Strings(keys)
	return keys
}

// Stats returns the merged counters: hit/miss/eviction come from the
// atomic fast path (lock-free; equal to the sum of ShardStats once all
// requests have returned), while the prefetch counters are summed from
// the shards under their locks (prefetch accounting lives inside the
// per-shard caches, where first-use detection happens).
func (s *Sharded) Stats() Stats {
	out := Stats{
		Hits:      s.hits.Value(),
		Misses:    s.misses.Value(),
		Evictions: s.evictions.Value(),
	}
	for _, sh := range s.shards {
		sh.mu.Lock()
		st := sh.c.Stats()
		sh.mu.Unlock()
		out.Prefetches += st.Prefetches
		out.PrefetchHits += st.PrefetchHits
		out.PrefetchWasted += st.PrefetchWasted
	}
	return out
}

// Lookups returns the total Request calls with a valid size; it always
// equals Stats().Hits + Stats().Misses at quiescence.
func (s *Sharded) Lookups() int64 { return s.lookups.Value() }

// MissRate returns misses / lookups from the atomic counters, 0 when
// idle.
func (s *Sharded) MissRate() float64 {
	misses := s.misses.Value()
	total := s.hits.Value() + misses
	if total == 0 {
		return 0
	}
	return float64(misses) / float64(total)
}
