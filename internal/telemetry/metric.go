package telemetry

import (
	"math"
	"sort"
	"sync/atomic"

	"anole/internal/stats"
)

// Counter is a monotonically increasing integer metric. The zero value
// is ready to use; a nil *Counter ignores writes and reads as 0, so
// components can hold handles unconditionally and pay one nil check
// when telemetry is disabled.
//
// A counter made by Child also adds every increment to its parent, so
// one write feeds both a component's own count (a stream's RunStats) and
// the total its registry exports. The parent holds no reference to its
// children.
type Counter struct {
	v      atomic.Int64
	parent *Counter
}

// Child returns a new counter whose every Add also adds to c. On a nil
// c it returns a standalone counter.
func (c *Counter) Child() *Counter { return &Counter{parent: c} }

// Inc adds 1.
func (c *Counter) Inc() { c.Add(1) }

// Add adds n to the counter and its parent chain (negative deltas are
// ignored — counters only go up).
func (c *Counter) Add(n int64) {
	if c == nil || n <= 0 {
		return
	}
	c.v.Add(n)
	c.parent.Add(n)
}

// Value returns the current count (0 for a nil counter).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an instantaneous float value (cache residency, breaker
// state, stream count). The zero value reads as 0; nil is a no-op.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Add adds d atomically (CAS loop).
func (g *Gauge) Add(d float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + d)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the current value (0 for a nil gauge).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// histRing is the bounded sample reservoir a Histogram keeps for exact
// quantile extraction: the most recent histRing observations, stored as
// float bits. 1024 samples bound the error of p99 on a steady stream
// while keeping the memory cost of a histogram fixed.
const histRing = 1024

// Histogram counts observations into fixed buckets (cumulative counts
// are rendered in Prometheus text form) and additionally retains a
// bounded ring of recent raw observations, from which Quantile extracts
// p50/p95/p99 through the internal/stats quantile code — exact over the
// retained window, deterministic under a simulated clock. All methods
// are safe for concurrent use; nil is a no-op.
type Histogram struct {
	bounds  []float64 // ascending upper bounds; +Inf is implicit
	buckets []atomic.Int64
	count   atomic.Int64
	sumBits atomic.Uint64

	ring [histRing]atomic.Uint64
	pos  atomic.Int64 // total writes; ring index = (pos-1) % histRing
}

// DefLatencyBuckets covers simulated frame latencies and link stalls,
// in seconds: 250µs to 10s.
var DefLatencyBuckets = []float64{
	0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
	0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// newHistogram builds a histogram over the given ascending upper
// bounds; nil or empty bounds select DefLatencyBuckets.
func newHistogram(bounds []float64) *Histogram {
	if len(bounds) == 0 {
		bounds = DefLatencyBuckets
	}
	b := append([]float64(nil), bounds...)
	sort.Float64s(b)
	return &Histogram{bounds: b, buckets: make([]atomic.Int64, len(b))}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	if i := sort.SearchFloat64s(h.bounds, v); i < len(h.buckets) {
		h.buckets[i].Add(1)
	}
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			break
		}
	}
	idx := h.pos.Add(1) - 1
	h.ring[idx%histRing].Store(math.Float64bits(v))
}

// Count returns the number of observations (0 for nil).
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of all observed values (0 for nil).
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sumBits.Load())
}

// samples snapshots the retained ring (at most histRing most-recent
// observations), unordered.
func (h *Histogram) samples() []float64 {
	n := h.pos.Load()
	if n > histRing {
		n = histRing
	}
	out := make([]float64, 0, n)
	for i := int64(0); i < n; i++ {
		out = append(out, math.Float64frombits(h.ring[i].Load()))
	}
	return out
}

// Quantile returns the q-th quantile of the retained observation window
// via stats.Quantile (0 when nothing has been observed). With a ring
// larger than the run's observation count this is the exact quantile of
// the run.
func (h *Histogram) Quantile(q float64) float64 {
	if h == nil {
		return 0
	}
	return stats.Quantile(h.samples(), q)
}

// bucketCounts returns the cumulative per-bucket counts aligned with
// Bounds; the final +Inf bucket equals Count.
func (h *Histogram) bucketCounts() []int64 {
	out := make([]int64, len(h.buckets))
	var cum int64
	for i := range h.buckets {
		cum += h.buckets[i].Load()
		out[i] = cum
	}
	return out
}
