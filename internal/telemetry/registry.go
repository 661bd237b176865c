package telemetry

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"sync"
)

// Kind discriminates the metric types a Registry holds.
type Kind uint8

// Metric kinds.
const (
	KindCounter Kind = iota + 1
	KindGauge
	KindHistogram
)

func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "histogram"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

type metricEntry struct {
	name, help string
	kind       Kind
	counter    *Counter
	gauge      *Gauge
	hist       *Histogram
}

// Registry is a named collection of metrics. Handles are get-or-create:
// asking twice for the same name and kind returns the same handle, so
// N streams sharing one registry share one counter and the exported
// value is the aggregate. Asking for an existing name with a different
// kind panics — that is a programming error, caught at wiring time.
//
// All methods are safe for concurrent use. A nil *Registry returns nil
// handles, which are themselves no-ops, so "telemetry off" needs no
// branches at instrumentation sites.
type Registry struct {
	mu      sync.RWMutex
	entries map[string]*metricEntry
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{entries: make(map[string]*metricEntry)}
}

// lookup returns the existing entry for name after verifying the kind,
// or nil; r.mu held (any mode).
func (r *Registry) lookup(name string, kind Kind) *metricEntry {
	e, ok := r.entries[name]
	if !ok {
		return nil
	}
	if e.kind != kind {
		panic(fmt.Sprintf("telemetry: metric %q registered as %s, requested as %s", name, e.kind, kind))
	}
	return e
}

func (r *Registry) getOrCreate(name, help string, kind Kind, build func() *metricEntry) *metricEntry {
	if !validName(name) {
		panic(fmt.Sprintf("telemetry: invalid metric name %q", name))
	}
	r.mu.RLock()
	e := r.lookup(name, kind)
	r.mu.RUnlock()
	if e != nil {
		return e
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if e := r.lookup(name, kind); e != nil {
		return e
	}
	e = build()
	e.name, e.help, e.kind = name, help, kind
	r.entries[name] = e
	return e
}

// Counter returns the counter registered under name, creating it on
// first use. Nil registries return a nil (no-op) handle.
func (r *Registry) Counter(name, help string) *Counter {
	if r == nil {
		return nil
	}
	return r.getOrCreate(name, help, KindCounter, func() *metricEntry {
		return &metricEntry{counter: &Counter{}}
	}).counter
}

// Gauge returns the gauge registered under name, creating it on first
// use. Nil registries return a nil (no-op) handle.
func (r *Registry) Gauge(name, help string) *Gauge {
	if r == nil {
		return nil
	}
	return r.getOrCreate(name, help, KindGauge, func() *metricEntry {
		return &metricEntry{gauge: &Gauge{}}
	}).gauge
}

// Histogram returns the histogram registered under name, creating it on
// first use with the given ascending bucket upper bounds (nil selects
// DefLatencyBuckets; later calls reuse the first call's buckets). Nil
// registries return a nil (no-op) handle.
func (r *Registry) Histogram(name, help string, bounds []float64) *Histogram {
	if r == nil {
		return nil
	}
	return r.getOrCreate(name, help, KindHistogram, func() *metricEntry {
		return &metricEntry{hist: newHistogram(bounds)}
	}).hist
}

// SampleBucket is one cumulative histogram bucket of a Sample.
type SampleBucket struct {
	Upper float64 `json:"le"`
	Count int64   `json:"count"`
}

// Sample is the point-in-time value of one metric, the unit of export
// shared by WriteText, Map and the tests.
type Sample struct {
	Name string `json:"name"`
	Help string `json:"help,omitempty"`
	Kind Kind   `json:"kind"`
	// Value carries a counter's count or a gauge's level.
	Value float64 `json:"value"`
	// Histogram-only fields: observation count and sum, cumulative
	// buckets (the implicit +Inf bucket is omitted; it equals Count),
	// and ring-exact quantiles.
	Count    int64          `json:"obsCount,omitempty"`
	Sum      float64        `json:"sum,omitempty"`
	Buckets  []SampleBucket `json:"buckets,omitempty"`
	P50, P95 float64        `json:"-"`
	P99      float64        `json:"-"`
}

// Gatherer is anything that can snapshot metrics: a Registry or a Multi
// of several.
type Gatherer interface {
	Gather() []Sample
}

// Gather snapshots every registered metric, sorted by name.
func (r *Registry) Gather() []Sample {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	entries := make([]*metricEntry, 0, len(r.entries))
	for _, e := range r.entries {
		entries = append(entries, e)
	}
	r.mu.RUnlock()
	sort.Slice(entries, func(i, j int) bool { return entries[i].name < entries[j].name })
	out := make([]Sample, 0, len(entries))
	for _, e := range entries {
		s := Sample{Name: e.name, Help: e.help, Kind: e.kind}
		switch e.kind {
		case KindCounter:
			s.Value = float64(e.counter.Value())
		case KindGauge:
			s.Value = e.gauge.Value()
		case KindHistogram:
			s.Count = e.hist.Count()
			s.Sum = e.hist.Sum()
			counts := e.hist.bucketCounts()
			s.Buckets = make([]SampleBucket, len(counts))
			for i, c := range counts {
				s.Buckets[i] = SampleBucket{Upper: e.hist.bounds[i], Count: c}
			}
			s.P50 = e.hist.Quantile(0.50)
			s.P95 = e.hist.Quantile(0.95)
			s.P99 = e.hist.Quantile(0.99)
		}
		out = append(out, s)
	}
	return out
}

// Multi merges several gatherers into one, concatenating their samples
// and re-sorting by name. Name collisions across children are preserved
// as duplicates so ValidateScheme (and the CI scrape check) can catch
// them.
type Multi []Gatherer

// Gather implements Gatherer.
func (m Multi) Gather() []Sample {
	var out []Sample
	for _, g := range m {
		if g == nil {
			continue
		}
		out = append(out, g.Gather()...)
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// WriteText renders the gatherer's snapshot in Prometheus text
// exposition format (version 0.0.4): # HELP / # TYPE headers, counters
// and gauges as single series, histograms as cumulative _bucket series
// plus _sum and _count.
func WriteText(w io.Writer, g Gatherer) error {
	if g == nil {
		return nil
	}
	for _, s := range g.Gather() {
		if s.Help != "" {
			if _, err := fmt.Fprintf(w, "# HELP %s %s\n", s.Name, s.Help); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", s.Name, s.Kind); err != nil {
			return err
		}
		switch s.Kind {
		case KindHistogram:
			for _, b := range s.Buckets {
				if _, err := fmt.Fprintf(w, "%s_bucket{le=%q} %d\n", s.Name, formatFloat(b.Upper), b.Count); err != nil {
					return err
				}
			}
			if _, err := fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", s.Name, s.Count); err != nil {
				return err
			}
			if _, err := fmt.Fprintf(w, "%s_sum %s\n%s_count %d\n", s.Name, formatFloat(s.Sum), s.Name, s.Count); err != nil {
				return err
			}
		default:
			if _, err := fmt.Fprintf(w, "%s %s\n", s.Name, formatFloat(s.Value)); err != nil {
				return err
			}
		}
	}
	return nil
}

// formatFloat renders a float the way Prometheus expects: shortest
// round-trip representation.
func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// Map flattens a snapshot into a name→value map for JSON reports:
// counters and gauges map directly; a histogram named h contributes
// h_count, h_sum and ring-exact h_p50 / h_p95 / h_p99 entries.
func Map(g Gatherer) map[string]float64 {
	if g == nil {
		return nil
	}
	samples := g.Gather()
	out := make(map[string]float64, len(samples))
	for _, s := range samples {
		switch s.Kind {
		case KindHistogram:
			out[s.Name+"_count"] = float64(s.Count)
			out[s.Name+"_sum"] = s.Sum
			out[s.Name+"_p50"] = s.P50
			out[s.Name+"_p95"] = s.P95
			out[s.Name+"_p99"] = s.P99
		default:
			out[s.Name] = s.Value
		}
	}
	return out
}
