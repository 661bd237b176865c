package modelcache

import (
	"sort"
	"testing"
)

// flatSizer charges every key the same serialized size, keeping the
// byte arithmetic in these tests legible.
func flatSizer(bytes int64) func(string) int64 {
	return func(string) int64 { return bytes }
}

// residentBytes recomputes what BytesUsed should be from first
// principles: the sizer summed over the resident key set.
func residentBytes(keys []string, sizer func(string) int64) int64 {
	var sum int64
	for _, k := range keys {
		sum += sizer(k)
	}
	return sum
}

func TestSweepToWatermarkSparesPinnedEntries(t *testing.T) {
	c := mustNewCache(10, LFU)
	sizer := flatSizer(100)
	c.SetSizer(sizer)
	c.SetByteCapacity(1000)
	c.SetPinWindow(1000) // pins stay live for the whole test

	for _, k := range []string{"p1", "p2"} {
		if ok, _, err := c.Prefetch(k, 1); !ok || err != nil {
			t.Fatalf("prefetch %s: admitted=%v err=%v", k, ok, err)
		}
	}
	for _, k := range []string{"d1", "d2", "d3", "d4"} {
		if _, _, err := c.Request(k, 1); err != nil {
			t.Fatal(err)
		}
	}
	if c.BytesUsed() != 600 {
		t.Fatalf("setup bytes %d, want 600", c.BytesUsed())
	}

	// Critical tightens the watermark; the sweep sheds cold unpinned
	// entries down to the scaled ceiling.
	c.SetWatermark(0.4) // ceiling 400 bytes
	evicted := c.SweepToWatermark()
	sort.Strings(evicted)
	if len(evicted) != 2 {
		t.Fatalf("sweep evicted %v, want two demand entries", evicted)
	}
	for _, k := range evicted {
		if k == "p1" || k == "p2" {
			t.Fatalf("sweep evicted pinned entry %s", k)
		}
	}
	if c.BytesUsed() != 400 {
		t.Fatalf("bytes after sweep %d, want 400", c.BytesUsed())
	}

	// Even a ceiling below the pinned footprint never claims a pinned
	// entry: the sweep stops when only pinned victims remain.
	c.SetWatermark(0.1) // ceiling 100 bytes < 200 pinned bytes
	c.SweepToWatermark()
	if !c.Contains("p1") || !c.Contains("p2") {
		t.Fatal("a tighter sweep evicted pinned entries")
	}
	if got := c.BytesUsed(); got != 200 {
		t.Fatalf("bytes after pinned-only sweep %d, want 200", got)
	}
	if got := residentBytes(c.Keys(), sizer); got != c.BytesUsed() {
		t.Fatalf("accounting drift: BytesUsed %d, resident sum %d", c.BytesUsed(), got)
	}

	// Relaxing back to Nominal makes the sweep a no-op.
	c.SetWatermark(1)
	if ev := c.SweepToWatermark(); ev != nil {
		t.Fatalf("nominal sweep evicted %v", ev)
	}
}

func TestByteCapacityBoundsAdmissions(t *testing.T) {
	c := mustNewCache(10, LFU)
	sizes := map[string]int64{"small": 500, "big": 600, "huge": 1200}
	c.SetSizer(func(k string) int64 { return sizes[k] })
	c.SetByteCapacity(1000)
	c.SetWatermark(0.5)

	// A model that can never fit is a demand-path error...
	if _, _, err := c.Request("huge", 1); err == nil {
		t.Fatal("Request admitted a model larger than the byte capacity")
	}
	// ...while speculative admission is best-effort: over the
	// watermark-scaled ceiling it declines without error.
	if ok, _, err := c.Prefetch("big", 1); ok || err != nil {
		t.Fatalf("prefetch past the watermark ceiling: admitted=%v err=%v", ok, err)
	}
	// The same model is admissible on demand — serving a frame uses the
	// full byte capacity, not the watermark fraction.
	if _, _, err := c.Request("big", 1); err != nil {
		t.Fatalf("demand admission under full capacity: %v", err)
	}
	if c.BytesUsed() != 600 {
		t.Fatalf("bytes %d, want 600", c.BytesUsed())
	}
	// A further demand admission evicts to fit under the byte ceiling
	// even though slot capacity has plenty of room.
	if _, evicted, err := c.Request("small", 1); err != nil || len(evicted) != 1 || evicted[0] != "big" {
		t.Fatalf("byte-pressure eviction: evicted=%v err=%v", evicted, err)
	}
	if c.Used() != 1 || c.BytesUsed() != 500 {
		t.Fatalf("after byte-pressure eviction: used=%d bytes=%d", c.Used(), c.BytesUsed())
	}
}

func TestWarmReadmitsWithoutEvictingOrCounting(t *testing.T) {
	c := mustNewCache(2, LFU)
	sizer := flatSizer(100)
	c.SetSizer(sizer)
	c.SetByteCapacity(250)

	if !c.Warm("a", 1, 5) {
		t.Fatal("warm into an empty cache failed")
	}
	if c.Freq("a") != 5 {
		t.Fatalf("warm freq %d, want the manifest's 5", c.Freq("a"))
	}
	if !c.Warm("a", 1, 2) {
		t.Fatal("warm of a resident key failed")
	}
	if c.Freq("a") != 5 {
		t.Fatalf("re-warm lowered freq to %d", c.Freq("a"))
	}
	if !c.Warm("b", 1, 0) {
		t.Fatal("warm of a second key failed")
	}
	// Slots are full: restore never displaces what already loaded.
	if c.Warm("c", 1, 99) {
		t.Fatal("warm evicted to make room")
	}
	// Byte budget full: same best-effort refusal.
	c2 := mustNewCache(8, LFU)
	c2.SetSizer(sizer)
	c2.SetByteCapacity(150)
	if !c2.Warm("a", 1, 0) || c2.Warm("b", 1, 0) {
		t.Fatal("warm ignored the byte capacity")
	}
	// A restore is not a lookup: no counter moves.
	if s := c.Stats(); s.Hits != 0 || s.Misses != 0 || s.Evictions != 0 || s.Prefetches != 0 {
		t.Fatalf("warm moved counters: %+v", s)
	}
	if got := residentBytes(c.Keys(), sizer); got != c.BytesUsed() {
		t.Fatalf("accounting drift: BytesUsed %d, resident sum %d", c.BytesUsed(), got)
	}
}

func TestShardedWatermarkAndWarm(t *testing.T) {
	s := MustNewSharded(8, LFU, 4)
	sizer := flatSizer(100)
	s.SetSizer(sizer)
	s.SetByteCapacity(800)
	s.SetPinWindow(1000)

	if !s.Warm("w1", 1, 3) || !s.Warm("w1", 1, 1) {
		t.Fatal("sharded warm failed")
	}
	if s.Freq("w1") != 3 {
		t.Fatalf("sharded warm freq %d, want 3", s.Freq("w1"))
	}
	if ok, _, err := s.Prefetch("pin", 1); !ok || err != nil {
		t.Fatalf("sharded prefetch: %v %v", ok, err)
	}
	for _, k := range []string{"d1", "d2", "d3", "d4", "d5", "d6"} {
		if _, _, err := s.Request(k, 1); err != nil {
			t.Fatal(err)
		}
	}
	// Whatever the hash distribution did, the byte ledger must agree
	// with the resident key set.
	if got := residentBytes(s.Keys(), sizer); got != s.BytesUsed() {
		t.Fatalf("accounting drift: BytesUsed %d, resident sum %d", s.BytesUsed(), got)
	}
	// Tighten to a per-shard ceiling below one entry: every unpinned
	// resident is swept, the pinned prefetch alone survives.
	s.SetWatermark(0.25)
	evicted := s.SweepToWatermark()
	for _, k := range evicted {
		if k == "pin" {
			t.Fatal("sharded sweep evicted a pinned entry")
		}
	}
	if keys := s.Keys(); len(keys) != 1 || keys[0] != "pin" {
		t.Fatalf("survivors %v, want only the pinned entry", keys)
	}
	if s.BytesUsed() != 100 {
		t.Fatalf("bytes after sweep %d, want the pinned entry's 100", s.BytesUsed())
	}
}
