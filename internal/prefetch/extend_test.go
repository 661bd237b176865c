package prefetch

import (
	"context"
	"math"
	"testing"

	"anole/internal/modelcache"
)

// TestMarkovGrowPreservesCounts pins the transition model's continual-
// adaptation contract: widening the matrix keeps every recorded count,
// new rows start rankable (Laplace smoothing), and shrinking is a no-op.
func TestMarkovGrowPreservesCounts(t *testing.T) {
	m, err := NewMarkov(2, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		m.Observe(0, 1)
	}

	m.Grow(4)
	if m.NumModels() != 4 {
		t.Fatalf("grew to %d models, want 4", m.NumModels())
	}
	if m.Observations() != 8 {
		t.Fatalf("observations %d after grow, want 8", m.Observations())
	}
	// The learned 0→1 edge must still dominate the smoothed row.
	if m.Prob(0, 1) <= m.Prob(0, 2) || m.Prob(0, 1) <= m.Prob(0, 3) {
		t.Fatalf("grow lost the learned edge: P(1|0)=%v P(2|0)=%v P(3|0)=%v",
			m.Prob(0, 1), m.Prob(0, 2), m.Prob(0, 3))
	}
	if top := m.TopKInto(nil, 0, 1); len(top) != 1 || top[0].Model != 1 {
		t.Fatalf("TopK after grow: %+v", top)
	}
	// Rows stay distributions.
	sum := 0.0
	for _, p := range m.Row(0) {
		sum += p
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("row 0 sums to %v after grow", sum)
	}
	// New indices are live observation targets.
	m.Observe(3, 2)
	if m.Prob(3, 2) <= m.Prob(3, 1) {
		t.Fatalf("new row ignored an observation: P(2|3)=%v P(1|3)=%v", m.Prob(3, 2), m.Prob(3, 1))
	}
	// Grow never shrinks.
	m.Grow(3)
	if m.NumModels() != 4 {
		t.Fatalf("grow(3) shrank the matrix to %d", m.NumModels())
	}
}

// TestSchedulerExtendModels pins the scheduler's repertoire-growth path:
// appended models become plannable prefetch targets, duplicate names are
// rejected, and a closed scheduler refuses to grow.
func TestSchedulerExtendModels(t *testing.T) {
	store := modelcache.MustNewSharded(4, modelcache.LFU, 1)
	ff := newFakeFetcher()
	s, err := NewScheduler(Config{Fetcher: ff, TopK: 1}, store, testModels(2))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	if err := s.ExtendModels(nil); err != nil {
		t.Fatalf("empty extension: %v", err)
	}
	if err := s.ExtendModels([]Model{{Name: "M_2", Bytes: 1 << 20}}); err != nil {
		t.Fatal(err)
	}
	if err := s.ExtendModels([]Model{{Name: "M_1", Bytes: 1}}); err == nil {
		t.Fatal("duplicate model name accepted")
	}

	// The appended model is a first-class prefetch target: teach 0→2 and
	// plan from 0.
	for i := 0; i < 10; i++ {
		s.Observe(0, 2)
	}
	s.Plan(0)
	wantStarted(t, ff, "M_2")
	ff.release("M_2")
	s.Tick()
	if !store.Contains("M_2") {
		t.Fatal("extended model not admitted")
	}

	s.Close()
	if err := s.ExtendModels([]Model{{Name: "M_3", Bytes: 1}}); err == nil {
		t.Fatal("closed scheduler grew its repertoire")
	}
}

// TestLinkFetcherAddModels pins the link-side half of repertoire growth:
// registered models become transferable, re-adding a known name with the
// same size is idempotent, a size change is rejected, and a rejected
// batch adds nothing (validation is atomic).
func TestLinkFetcherAddModels(t *testing.T) {
	lf := newLF(t, alwaysGood(), []Model{{Name: "M_0", Bytes: 1 << 20}})
	ctx := context.Background()

	if _, _, err := lf.FetchModelNow(ctx, "M_new"); err == nil {
		t.Fatal("unregistered model fetched")
	}
	if err := lf.AddModels([]Model{{Name: "M_new", Bytes: 1 << 20}}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := lf.FetchModelNow(ctx, "M_new"); err != nil {
		t.Fatalf("fetch after AddModels: %v", err)
	}

	if err := lf.AddModels([]Model{{Name: "M_new", Bytes: 1 << 20}}); err != nil {
		t.Fatalf("idempotent re-add rejected: %v", err)
	}
	if err := lf.AddModels([]Model{{Name: "M_new", Bytes: 2 << 20}}); err == nil {
		t.Fatal("size change accepted")
	}

	// One bad entry voids the whole batch.
	if err := lf.AddModels([]Model{{Name: "M_y", Bytes: 1 << 20}, {Name: "M_z", Bytes: 0}}); err == nil {
		t.Fatal("zero-byte model accepted")
	}
	if _, _, err := lf.FetchModelNow(ctx, "M_y"); err == nil {
		t.Fatal("rejected batch partially registered")
	}
}
