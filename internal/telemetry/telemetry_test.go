package telemetry

import (
	"math"
	"strings"
	"sync"
	"testing"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("anole_test_ops_total", "ops")
	c.Inc()
	c.Add(4)
	c.Add(-3) // ignored: counters only go up
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	g := r.Gauge("anole_test_level", "level")
	g.Set(2.5)
	g.Add(-0.5)
	if got := g.Value(); got != 2.0 {
		t.Fatalf("gauge = %v, want 2", got)
	}
}

func TestNilHandlesAreNoOps(t *testing.T) {
	var (
		reg *Registry
		tr  *Tracer
	)
	c := reg.Counter("anole_x_total", "")
	g := reg.Gauge("anole_x", "")
	h := reg.Histogram("anole_x_seconds", "", nil)
	c.Inc()
	g.Set(1)
	h.Observe(1)
	tr.Record(Span{})
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 || h.Quantile(0.5) != 0 {
		t.Fatal("nil handles must read as zero")
	}
	if reg.Gather() != nil || tr.Snapshot() != nil || tr.NextSeq() != 0 {
		t.Fatal("nil registry/tracer must read as empty")
	}
	if err := WriteText(&strings.Builder{}, reg); err != nil {
		t.Fatal(err)
	}
}

func TestGetOrCreateSharesHandles(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("anole_core_frames_total", "frames")
	b := r.Counter("anole_core_frames_total", "frames")
	if a != b {
		t.Fatal("same name must return the same handle")
	}
	a.Inc()
	if b.Value() != 1 {
		t.Fatal("shared handle must share state")
	}
}

func TestKindMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("anole_test_x_total", "")
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on kind mismatch")
		}
	}()
	r.Gauge("anole_test_x_total", "")
}

func TestInvalidNamePanics(t *testing.T) {
	r := NewRegistry()
	for _, bad := range []string{"", "Upper_case", "9starts_with_digit", "has-dash", "_leading"} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("name %q accepted", bad)
				}
			}()
			r.Counter(bad, "")
		}()
	}
}

func TestHistogramBucketsAndQuantiles(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("anole_test_latency_seconds", "lat", []float64{0.01, 0.1, 1})
	for _, v := range []float64{0.005, 0.05, 0.05, 0.5, 5} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Fatalf("count = %d", h.Count())
	}
	if got, want := h.Sum(), 0.005+0.05+0.05+0.5+5; math.Abs(got-want) > 1e-12 {
		t.Fatalf("sum = %v, want %v", got, want)
	}
	samples := r.Gather()
	if len(samples) != 1 {
		t.Fatalf("gathered %d samples", len(samples))
	}
	s := samples[0]
	wantCum := []int64{1, 3, 4} // <=0.01, <=0.1, <=1
	for i, b := range s.Buckets {
		if b.Count != wantCum[i] {
			t.Errorf("bucket le=%v count %d, want %d", b.Upper, b.Count, wantCum[i])
		}
	}
	// Ring-exact quantiles through internal/stats.
	if got := h.Quantile(0.5); got != 0.05 {
		t.Errorf("p50 = %v, want 0.05", got)
	}
	if got := h.Quantile(1); got != 5.0 {
		t.Errorf("p100 = %v, want 5", got)
	}
	if got := h.Quantile(0); got != 0.005 {
		t.Errorf("p0 = %v, want 0.005", got)
	}
}

func TestHistogramSingleSampleQuantiles(t *testing.T) {
	h := newHistogram(nil)
	h.Observe(0.25)
	for _, q := range []float64{0, 0.5, 0.95, 1} {
		if got := h.Quantile(q); got != 0.25 {
			t.Fatalf("q%v = %v, want 0.25", q, got)
		}
	}
}

func TestHistogramRingOverflowKeepsRecentWindow(t *testing.T) {
	h := newHistogram([]float64{1e9})
	for i := 0; i < histRing; i++ {
		h.Observe(1000) // old regime, fully overwritten below
	}
	for i := 0; i < histRing; i++ {
		h.Observe(1)
	}
	if got := h.Quantile(0.99); got != 1 {
		t.Fatalf("p99 after overwrite = %v, want 1", got)
	}
	if h.Count() != 2*histRing {
		t.Fatalf("count = %d", h.Count())
	}
}

func TestWriteTextFormat(t *testing.T) {
	r := NewRegistry()
	r.Counter("anole_test_ops_total", "ops so far").Add(3)
	r.Gauge("anole_test_level", "").Set(1.5)
	h := r.Histogram("anole_test_wait_seconds", "wait", []float64{0.5, 1})
	h.Observe(0.4)
	h.Observe(2)
	var sb strings.Builder
	if err := WriteText(&sb, r); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"# HELP anole_test_ops_total ops so far",
		"# TYPE anole_test_ops_total counter",
		"anole_test_ops_total 3",
		"anole_test_level 1.5",
		"# TYPE anole_test_wait_seconds histogram",
		`anole_test_wait_seconds_bucket{le="0.5"} 1`,
		`anole_test_wait_seconds_bucket{le="1"} 1`,
		`anole_test_wait_seconds_bucket{le="+Inf"} 2`,
		"anole_test_wait_seconds_sum 2.4",
		"anole_test_wait_seconds_count 2",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestMapFlattensHistograms(t *testing.T) {
	r := NewRegistry()
	r.Counter("anole_test_ops_total", "").Add(2)
	h := r.Histogram("anole_test_wait_seconds", "", nil)
	h.Observe(0.1)
	h.Observe(0.3)
	m := Map(r)
	if m["anole_test_ops_total"] != 2 {
		t.Errorf("counter in map = %v", m["anole_test_ops_total"])
	}
	if m["anole_test_wait_seconds_count"] != 2 {
		t.Errorf("hist count in map = %v", m["anole_test_wait_seconds_count"])
	}
	if got := m["anole_test_wait_seconds_p50"]; math.Abs(got-0.2) > 1e-12 {
		t.Errorf("p50 in map = %v, want 0.2", got)
	}
}

func TestValidateScheme(t *testing.T) {
	ok := []Sample{{Name: "anole_core_frames_total"}, {Name: "anole_repo_attempts_total"}}
	if err := ValidateScheme(ok); err != nil {
		t.Fatalf("clean snapshot rejected: %v", err)
	}
	dup := []Sample{{Name: "anole_x_total"}, {Name: "anole_x_total"}}
	if err := ValidateScheme(dup); err == nil {
		t.Fatal("duplicate accepted")
	}
	foreign := []Sample{{Name: "other_x_total"}}
	if err := ValidateScheme(foreign); err == nil {
		t.Fatal("foreign namespace accepted")
	}
}

func TestMultiMergesAndExposesDuplicates(t *testing.T) {
	a, b := NewRegistry(), NewRegistry()
	a.Counter("anole_a_total", "").Inc()
	b.Counter("anole_b_total", "").Add(2)
	m := Multi{a, b, nil}
	got := Map(m)
	if got["anole_a_total"] != 1 || got["anole_b_total"] != 2 {
		t.Fatalf("merged map = %v", got)
	}
	// A collision across registries must surface to ValidateScheme.
	b.Counter("anole_a_total", "").Inc()
	if err := ValidateScheme(m.Gather()); err == nil {
		t.Fatal("cross-registry duplicate not detected")
	}
}

func TestConcurrentMetricUpdates(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	const workers, each = 8, 1000
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := r.Counter("anole_test_ops_total", "")
			h := r.Histogram("anole_test_wait_seconds", "", nil)
			g := r.Gauge("anole_test_level", "")
			for i := 0; i < each; i++ {
				c.Inc()
				h.Observe(float64(i))
				g.Add(1)
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("anole_test_ops_total", "").Value(); got != workers*each {
		t.Fatalf("counter = %d, want %d", got, workers*each)
	}
	if got := r.Histogram("anole_test_wait_seconds", "", nil).Count(); got != workers*each {
		t.Fatalf("hist count = %d, want %d", got, workers*each)
	}
	if got := r.Gauge("anole_test_level", "").Value(); got != workers*each {
		t.Fatalf("gauge = %v, want %d", got, workers*each)
	}
}

// TestChildCounters pins the parent chain: a child of a nil parent
// counts on its own, a parent reads the sum of its children (written
// concurrently, through a grandchild too) and is what the registry
// exports, and a non-positive Add changes neither child nor parent.
func TestChildCounters(t *testing.T) {
	var none *Counter
	solo := none.Child()
	solo.Add(3)
	solo.Inc()
	if solo.Value() != 4 {
		t.Fatalf("standalone child = %d, want 4", solo.Value())
	}

	r := NewRegistry()
	parent := r.Counter("anole_test_ops_total", "")
	a, b := parent.Child(), parent.Child()
	grand := a.Child()
	var wg sync.WaitGroup
	const each = 1000
	for _, c := range []*Counter{a, b, grand} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	b.Add(5)
	for _, c := range []*Counter{a, b, grand} {
		c.Add(0)
		c.Add(-7)
	}
	if grand.Value() != each || a.Value() != 2*each || b.Value() != each+5 {
		t.Fatalf("children grand=%d a=%d b=%d, want %d, %d, %d", grand.Value(), a.Value(), b.Value(), each, 2*each, each+5)
	}
	if want := a.Value() + b.Value(); parent.Value() != want {
		t.Fatalf("parent = %d, want the sum of its children %d", parent.Value(), want)
	}
	if got := Map(r)["anole_test_ops_total"]; got != float64(parent.Value()) {
		t.Fatalf("registry exports %v, parent holds %d", got, parent.Value())
	}
}
