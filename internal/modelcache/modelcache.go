// Package modelcache implements the paper's Cache-based Model Deployment
// (CMD, §V-B): a bounded cache of compressed models resident in GPU
// memory, evicting Least Frequently Used models when a newly requested
// model misses. LRU and FIFO policies are included for the cache-policy
// ablation.
//
// Sharded is the one cache type. It partitions the capacity across
// mutex-guarded shards keyed by model name, with atomic
// hit/miss/eviction counters, and is safe for concurrent use. One shard
// serves a single camera (core.NewRuntime); core.MultiRuntime shares one
// cache across many streams. Each shard runs the eviction policy in an
// unexported single-goroutine engine (cache, this file).
package modelcache

import (
	"fmt"
	"sort"
)

// Policy selects the eviction discipline.
type Policy int

// Eviction policies. LFU is the paper's choice, justified by the
// power-law model-utility distribution of Fig. 4(b).
const (
	LFU Policy = iota + 1
	LRU
	FIFO
)

func (p Policy) String() string {
	switch p {
	case LFU:
		return "LFU"
	case LRU:
		return "LRU"
	case FIFO:
		return "FIFO"
	default:
		return fmt.Sprintf("policy(%d)", int(p))
	}
}

type entry struct {
	key      string
	size     int
	bytes    int64 // serialized model bytes per the sizer at admission (0 without a sizer)
	freq     int   // use count (LFU)
	lastUsed int64 // logical clock of last use (LRU)
	inserted int64 // logical clock at insertion (FIFO, tie-break)
	// prefetched marks entries admitted speculatively by Prefetch;
	// unused stays true until the entry's first real use (Touch or a
	// Request hit). pinnedUntil protects an unused prefetched entry
	// from eviction while clock < pinnedUntil (its first-use window).
	prefetched  bool
	unused      bool
	pinnedUntil int64
}

// cache is one shard's policy engine: a bounded model cache whose
// capacity is expressed in abstract size units (the harness uses
// "compressed model" units, matching Fig. 7(b)'s x-axis). It is not safe
// for concurrent use; Sharded guards each engine with its shard's lock.
type cache struct {
	capacity int
	policy   Policy
	entries  map[string]*entry
	// history preserves use counts across evictions, so a hot model's
	// utility survives a temporary eviction (LFU with perfect history;
	// the paper's CMD tracks model utility over the whole stream).
	history map[string]int
	clock   int64
	used    int
	// pinWindow is the first-use protection span, in logical-clock
	// ticks, granted to prefetched entries (see Prefetch).
	pinWindow int64
	// sizer maps a key to its serialized model size in bytes (see
	// SetSizer); bytesUsed is the summed bytes of resident entries.
	sizer     func(key string) int64
	bytesUsed int64
	// byteCap bounds bytesUsed when > 0 and a sizer is installed (see
	// SetByteCapacity); watermark (0 < w ≤ 1) scales the byte ceiling
	// for speculative admissions and sweeps under memory pressure.
	byteCap   int64
	watermark float64

	hits      int64
	misses    int64
	evictions int64

	prefetches     int64
	prefetchHits   int64
	prefetchWasted int64
}

// DefaultPinWindow is the first-use protection window, in logical-clock
// ticks (every Touch and every admission advance the clock by one),
// granted to prefetched entries: within the window an unused prefetched
// entry is evicted only when no unpinned victim exists.
const DefaultPinWindow = 64

// newCache returns an engine holding at most capacity size units under
// the given policy.
func newCache(capacity int, policy Policy) (*cache, error) {
	if capacity <= 0 {
		return nil, fmt.Errorf("modelcache: capacity %d", capacity)
	}
	switch policy {
	case LFU, LRU, FIFO:
	default:
		return nil, fmt.Errorf("modelcache: unknown policy %v", policy)
	}
	return &cache{
		capacity:  capacity,
		policy:    policy,
		entries:   make(map[string]*entry),
		history:   make(map[string]int),
		pinWindow: DefaultPinWindow,
		watermark: 1,
	}, nil
}

// Capacity returns the configured capacity in size units.
func (c *cache) Capacity() int { return c.capacity }

// Used returns the occupied size units.
func (c *cache) Used() int { return c.used }

// SetSizer teaches the cache the serialized byte size of each model:
// fn maps a key to its exact on-device bytes (e.g. nn.Weights.SizeBytes
// of the detector behind the key). Resident entries are re-measured
// immediately, and every later admission records fn(key) so BytesUsed
// tracks the real resident set. A nil fn clears byte accounting.
func (c *cache) SetSizer(fn func(key string) int64) {
	c.sizer = fn
	c.bytesUsed = 0
	for _, e := range c.entries {
		e.bytes = c.sizeOf(e.key)
		c.bytesUsed += e.bytes
	}
}

// BytesUsed returns the summed serialized bytes of resident models, 0
// until SetSizer installs a sizer. Unlike Used (abstract slot units),
// this is the exact memory figure of the resident repertoire slice.
func (c *cache) BytesUsed() int64 { return c.bytesUsed }

// SetByteCapacity bounds the resident set in serialized bytes: demand
// admissions evict until the incoming model fits under n, speculative
// admissions fit under the watermark fraction of n. The bound is only
// enforced while a sizer is installed (without one every entry
// measures 0 bytes). n <= 0 clears the bound. This is how a device
// profile's GPU memory ceiling becomes the cache's real budget,
// instead of the slot capacity silently diverging from it.
func (c *cache) SetByteCapacity(n int64) {
	if n < 0 {
		n = 0
	}
	c.byteCap = n
}

// ByteCapacity returns the configured byte capacity (0 = unbounded).
func (c *cache) ByteCapacity() int64 { return c.byteCap }

// SetWatermark sets the byte-ceiling fraction (0 < frac ≤ 1) applied
// to speculative admissions and watermark sweeps. Under memory
// pressure the fraction tightens (e.g. 0.75) so the cache sheds cold
// entries and keeps headroom; demand admissions still use the full
// byte capacity — serving a frame is never blocked by the watermark.
// Out-of-range values reset to 1.
func (c *cache) SetWatermark(frac float64) {
	if frac <= 0 || frac > 1 {
		frac = 1
	}
	c.watermark = frac
}

// effByteCap returns the watermark-scaled byte ceiling (0 when byte
// capacity is unbounded or no sizer is installed).
func (c *cache) effByteCap() int64 {
	if c.byteCap <= 0 || c.sizer == nil {
		return 0
	}
	return int64(float64(c.byteCap) * c.watermark)
}

// SweepToWatermark evicts unpinned entries (per the policy order)
// until resident bytes fit under the watermark-scaled byte ceiling,
// returning the evicted keys. Pinned entries — prefetched models
// inside their first-use window — are never evicted by a sweep, even
// if that leaves the cache above the watermark: the sweep is advisory
// pressure relief, not a correctness bound. No-op without a byte
// capacity and sizer.
func (c *cache) SweepToWatermark() []string {
	target := c.effByteCap()
	if target <= 0 {
		return nil
	}
	var evicted []string
	for c.bytesUsed > target {
		victim := c.victimUnpinned()
		if victim == "" {
			break
		}
		c.evictEntry(victim)
		evicted = append(evicted, victim)
	}
	return evicted
}

// Warm re-admits key from a restart checkpoint's residency manifest:
// it inserts without evicting (admission is best-effort — restore must
// never displace whatever already loaded), without touching the
// hit/miss/prefetch counters (a restore is not a lookup), and seeds
// the LFU perfect history with freq so the entry keeps its pre-crash
// utility standing. Reports whether the key is resident afterwards.
func (c *cache) Warm(key string, size, freq int) bool {
	if size <= 0 || key == "" {
		return false
	}
	if _, ok := c.entries[key]; ok {
		return true
	}
	if c.used+size > c.capacity {
		return false
	}
	bytes := c.sizeOf(key)
	if c.byteCap > 0 && c.sizer != nil && c.bytesUsed+bytes > c.byteCap {
		return false
	}
	if freq < 0 {
		freq = 0
	}
	if freq < c.history[key] {
		freq = c.history[key]
	}
	c.history[key] = freq
	c.clock++
	e := &entry{
		key:      key,
		size:     size,
		bytes:    bytes,
		freq:     freq,
		lastUsed: c.clock,
		inserted: c.clock,
	}
	c.entries[key] = e
	c.used += size
	c.bytesUsed += e.bytes
	return true
}

// sizeOf measures key under the installed sizer (0 without one).
func (c *cache) sizeOf(key string) int64 {
	if c.sizer == nil {
		return 0
	}
	return c.sizer(key)
}

// Len returns the number of cached models.
func (c *cache) Len() int { return len(c.entries) }

// Contains reports whether key is cached, without recording a use.
func (c *cache) Contains(key string) bool {
	_, ok := c.entries[key]
	return ok
}

// Touch records a use of key (frequency and recency bump) and reports
// whether it was present. The first use of a prefetched entry counts as
// a prefetch hit — the model was warmed before it was needed — and
// releases its eviction pin.
func (c *cache) Touch(key string) bool {
	e, ok := c.entries[key]
	if !ok {
		return false
	}
	c.clock++
	e.freq++
	c.history[key] = e.freq
	e.lastUsed = c.clock
	if e.prefetched && e.unused {
		e.unused = false
		e.pinnedUntil = 0
		c.prefetchHits++
	}
	return true
}

// SetPinWindow sets the first-use protection window of future Prefetch
// admissions, in logical-clock ticks (≤0 disables pinning). The default
// is DefaultPinWindow.
func (c *cache) SetPinWindow(n int) {
	if n < 0 {
		n = 0
	}
	c.pinWindow = int64(n)
}

// Prefetch speculatively admits key ahead of an anticipated request. It
// differs from Request in three ways: it does not move the hit/miss
// counters (a prefetch is not a lookup), it will not evict a pinned
// entry or the most recently used one to make room (admission is
// best-effort and reports admitted = false when only protected victims
// remain), and the new entry is itself
// pinned against eviction until its first use or until the pin window
// expires. A key that is already resident is left untouched (admitted =
// false, no use recorded). Entries larger than the cache are rejected
// with an error.
func (c *cache) Prefetch(key string, size int) (admitted bool, evicted []string, err error) {
	if size <= 0 {
		return false, nil, fmt.Errorf("modelcache: size %d for %q", size, key)
	}
	if _, ok := c.entries[key]; ok {
		return false, nil, nil
	}
	if size > c.capacity {
		return false, nil, fmt.Errorf("modelcache: %q (size %d) exceeds capacity %d", key, size, c.capacity)
	}
	incomingBytes := c.sizeOf(key)
	if ceil := c.effByteCap(); ceil > 0 && incomingBytes > ceil {
		return false, nil, nil
	}
	for c.overCommitted(size, incomingBytes, c.effByteCap()) {
		victim := c.victimSpeculative()
		if victim == "" {
			return false, evicted, nil
		}
		c.evictEntry(victim)
		evicted = append(evicted, victim)
	}
	c.clock++
	e := &entry{
		key:         key,
		size:        size,
		bytes:       incomingBytes,
		freq:        c.history[key], // no use recorded yet
		lastUsed:    c.clock,
		inserted:    c.clock,
		prefetched:  true,
		unused:      true,
		pinnedUntil: c.clock + c.pinWindow,
	}
	c.entries[key] = e
	c.used += size
	c.bytesUsed += e.bytes
	c.prefetches++
	return true, evicted, nil
}

// Request is the cache's main entry point: it records a hit (touching the
// entry) when key is cached, or a miss followed by insertion, evicting
// victims per the policy until the new entry fits. It returns whether the
// request hit and which keys were evicted. Entries larger than the whole
// cache are rejected with an error. LFU frequency counts survive
// eviction (perfect history), so a previously hot model regains its
// utility standing on re-admission.
func (c *cache) Request(key string, size int) (hit bool, evicted []string, err error) {
	if size <= 0 {
		return false, nil, fmt.Errorf("modelcache: size %d for %q", size, key)
	}
	if c.Touch(key) {
		c.hits++
		return true, nil, nil
	}
	c.misses++
	if size > c.capacity {
		return false, nil, fmt.Errorf("modelcache: %q (size %d) exceeds capacity %d", key, size, c.capacity)
	}
	incomingBytes := c.sizeOf(key)
	if c.byteCap > 0 && c.sizer != nil && incomingBytes > c.byteCap {
		return false, nil, fmt.Errorf("modelcache: %q (%d bytes) exceeds byte capacity %d", key, incomingBytes, c.byteCap)
	}
	incomingFreq := c.history[key] + 1
	c.history[key] = incomingFreq
	// Demand admissions use the full byte capacity, not the watermark:
	// serving the current frame always outranks keeping headroom.
	byteCeil := int64(0)
	if c.byteCap > 0 && c.sizer != nil {
		byteCeil = c.byteCap
	}
	for c.overCommitted(size, incomingBytes, byteCeil) {
		victim := c.victim()
		if victim == "" {
			return false, evicted, fmt.Errorf("modelcache: no evictable entry for %q", key)
		}
		c.evictEntry(victim)
		evicted = append(evicted, victim)
	}
	c.clock++
	e := &entry{
		key:      key,
		size:     size,
		bytes:    incomingBytes,
		freq:     incomingFreq,
		lastUsed: c.clock,
		inserted: c.clock,
	}
	c.entries[key] = e
	c.used += size
	c.bytesUsed += e.bytes
	return false, evicted, nil
}

// Remove drops key from the cache (e.g. when the runtime retires a
// model), reporting whether it was present. It does not count as an
// eviction.
func (c *cache) Remove(key string) bool {
	if _, ok := c.entries[key]; !ok {
		return false
	}
	c.removeEntry(key)
	return true
}

func (c *cache) removeEntry(key string) {
	e := c.entries[key]
	c.used -= e.size
	c.bytesUsed -= e.bytes
	delete(c.entries, key)
}

// overCommitted reports whether admitting (size, bytes) would exceed
// the slot capacity or, when byteCeil > 0, the byte ceiling.
func (c *cache) overCommitted(size int, bytes, byteCeil int64) bool {
	if c.used+size > c.capacity {
		return true
	}
	return byteCeil > 0 && c.bytesUsed+bytes > byteCeil
}

// evictEntry removes key as an eviction, counting a wasted prefetch when
// the entry was warmed but never used.
func (c *cache) evictEntry(key string) {
	if e := c.entries[key]; e != nil && e.prefetched && e.unused {
		c.prefetchWasted++
	}
	c.removeEntry(key)
	c.evictions++
}

// pinned reports whether e is inside its prefetch first-use window.
func (c *cache) pinned(e *entry) bool {
	return e.unused && e.pinnedUntil > c.clock
}

// victim picks the eviction candidate under the policy, breaking ties by
// earliest insertion so eviction order is deterministic. Entries inside
// their prefetch pin window are spared while any unpinned candidate
// exists; when every entry is pinned the policy runs over all of them,
// so an on-demand admission never fails for pinning alone.
func (c *cache) victim() string {
	if v := c.victimUnpinned(); v != "" {
		return v
	}
	return c.victimAmong(func(*entry) bool { return true })
}

// victimUnpinned picks the policy victim among unpinned entries only,
// returning "" when none exists.
func (c *cache) victimUnpinned() string {
	return c.victimAmong(func(e *entry) bool { return !c.pinned(e) })
}

// victimSpeculative selects a victim for speculative admission. Pinned
// entries are protected, and so is the most recently used entry: a
// prefetch must never displace the model serving the current scene,
// even when the policy's long-run ranking (LFU frequency, say) puts
// that model last. Demand insertion (Request) is not so constrained.
func (c *cache) victimSpeculative() string {
	mru := c.mostRecentlyUsed()
	return c.victimAmong(func(e *entry) bool { return !c.pinned(e) && e != mru })
}

func (c *cache) mostRecentlyUsed() *entry {
	var best *entry
	for _, e := range c.entries {
		if best == nil || e.lastUsed > best.lastUsed {
			best = e
		}
	}
	return best
}

func (c *cache) victimAmong(ok func(*entry) bool) string {
	var best *entry
	for _, e := range c.entries {
		if !ok(e) {
			continue
		}
		if best == nil || less(c.policy, e, best) {
			best = e
		}
	}
	if best == nil {
		return ""
	}
	return best.key
}

func less(p Policy, a, b *entry) bool {
	switch p {
	case LFU:
		if a.freq != b.freq {
			return a.freq < b.freq
		}
	case LRU:
		if a.lastUsed != b.lastUsed {
			return a.lastUsed < b.lastUsed
		}
	case FIFO:
		// fall through to insertion order
	}
	return a.inserted < b.inserted
}

// Keys returns the cached keys sorted lexicographically (a stable view
// for tests and logs).
func (c *cache) Keys() []string {
	keys := make([]string, 0, len(c.entries))
	for k := range c.entries {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// Stats reports cumulative hit/miss/eviction counts plus the prefetch
// counters: speculative admissions, first uses of a warmed entry (the
// switch was served warm), and warmed entries evicted before any use.
type Stats struct {
	Hits      int64
	Misses    int64
	Evictions int64

	Prefetches     int64
	PrefetchHits   int64
	PrefetchWasted int64
}

// Stats returns a snapshot of the cache counters.
func (c *cache) Stats() Stats {
	return Stats{
		Hits:      c.hits,
		Misses:    c.misses,
		Evictions: c.evictions,

		Prefetches:     c.prefetches,
		PrefetchHits:   c.prefetchHits,
		PrefetchWasted: c.prefetchWasted,
	}
}

// MissRate returns misses / (hits + misses), 0 when idle. This is the
// Fig. 7(b) y-axis.
func (c *cache) MissRate() float64 {
	total := c.hits + c.misses
	if total == 0 {
		return 0
	}
	return float64(c.misses) / float64(total)
}

// Freq returns the recorded use count of key (0 when absent), exposed for
// tests and the utility-distribution experiment.
func (c *cache) Freq(key string) int {
	if e, ok := c.entries[key]; ok {
		return e.freq
	}
	return 0
}
