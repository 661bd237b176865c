package prefetch

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"testing"
	"time"

	"anole/internal/modelcache"
)

// fakeFetcher is a controllable tick-synchronous Fetcher. StartBackground
// records the request and parks the transfer; release marks it due, and
// the fake's next Tick completes every due transfer before returning,
// as LinkFetcher does. Demand fetches return at once with a fixed stall.
type fakeFetcher struct {
	mu       sync.Mutex
	started  []string
	pending  []*fakeXfer
	demanded []string
	stall    time.Duration
}

// fakeXfer is one parked background transfer; due transfers complete on
// the next Tick with err.
type fakeXfer struct {
	name string
	done func(int64, error)
	due  bool
	err  error
}

func newFakeFetcher() *fakeFetcher {
	return &fakeFetcher{stall: 50 * time.Millisecond}
}

// release marks the pending background transfer of name due: it
// completes cleanly on the next Tick.
func (f *fakeFetcher) release(name string) { f.settle(name, nil) }

// fail marks the pending transfer of name due with err.
func (f *fakeFetcher) fail(name string, err error) { f.settle(name, err) }

func (f *fakeFetcher) settle(name string, err error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	for _, x := range f.pending {
		if x.name == name {
			x.due, x.err = true, err
			return
		}
	}
	panic("fakeFetcher: no pending transfer of " + name)
}

// startedNames returns the background requests so far, in order.
func (f *fakeFetcher) startedNames() []string {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]string(nil), f.started...)
}

func (f *fakeFetcher) Tick() {
	f.mu.Lock()
	var due []*fakeXfer
	kept := f.pending[:0]
	for _, x := range f.pending {
		if x.due {
			due = append(due, x)
		} else {
			kept = append(kept, x)
		}
	}
	f.pending = kept
	f.mu.Unlock()
	for _, x := range due {
		if x.err != nil {
			x.done(0, x.err)
		} else {
			x.done(1000, nil)
		}
	}
}

// StartBackground parks the transfer. Its cancel reports true only while
// the transfer is neither due nor completed, matching LinkFetcher, whose
// due transfers are already committed to their callback.
func (f *fakeFetcher) StartBackground(name string, done func(int64, error)) (func() bool, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.started = append(f.started, name)
	x := &fakeXfer{name: name, done: done}
	f.pending = append(f.pending, x)
	cancel := func() bool {
		f.mu.Lock()
		defer f.mu.Unlock()
		for i, q := range f.pending {
			if q == x && !q.due {
				f.pending = append(f.pending[:i], f.pending[i+1:]...)
				return true
			}
		}
		return false
	}
	return cancel, nil
}

func (f *fakeFetcher) FetchModelNow(ctx context.Context, name string) (int64, time.Duration, error) {
	f.mu.Lock()
	f.demanded = append(f.demanded, name)
	f.mu.Unlock()
	return 1000, f.stall, nil
}

func testModels(n int) []Model {
	out := make([]Model, n)
	for i := range out {
		out[i] = Model{Name: fmt.Sprintf("M_%d", i), Bytes: 1 << 20}
	}
	return out
}

// wantStarted fails unless the fetcher's background requests are
// exactly names, in order.
func wantStarted(t *testing.T, f *fakeFetcher, names ...string) {
	t.Helper()
	if got := f.startedNames(); !slices.Equal(got, names) {
		t.Fatalf("background fetches %q, want %q", got, names)
	}
}

func TestSchedulerPlanPrefetchesPrediction(t *testing.T) {
	store := modelcache.MustNewSharded(4, modelcache.LFU, 1)
	ff := newFakeFetcher()
	s, err := NewScheduler(Config{Fetcher: ff, TopK: 1}, store, testModels(3))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	// Teach 0→1 strongly, then plan from 0.
	for i := 0; i < 10; i++ {
		s.Observe(0, 1)
	}
	s.Plan(0)
	wantStarted(t, ff, "M_1")
	s.Tick()
	if store.Contains("M_1") {
		t.Fatal("M_1 admitted before its transfer came due")
	}
	ff.release("M_1")
	s.Tick()
	if !store.Contains("M_1") {
		t.Fatal("M_1 not admitted inside the Tick that completed it")
	}
	st := s.Stats()
	if st.Issued != 1 || st.Completed != 1 || st.PrefetchedBytes != 1000 {
		t.Fatalf("stats %+v", st)
	}
	if cs := store.Stats(); cs.Prefetches != 1 {
		t.Fatalf("store prefetches %d", cs.Prefetches)
	}
	// A resident target is not fetched again.
	s.Plan(0)
	wantStarted(t, ff, "M_1")
}

func TestSchedulerCancelsStaleTarget(t *testing.T) {
	store := modelcache.MustNewSharded(4, modelcache.LFU, 1)
	ff := newFakeFetcher()
	s, err := NewScheduler(Config{Fetcher: ff, TopK: 1}, store, testModels(3))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	for i := 0; i < 10; i++ {
		s.Observe(0, 1) // from 0, predict 1
		s.Observe(1, 2) // from 1, predict 2
	}
	s.Plan(0)
	wantStarted(t, ff, "M_1")
	// The run moved on: from model 1 the prediction is 2, so the M_1
	// flight is stale and must be cancelled.
	s.Plan(1)
	wantStarted(t, ff, "M_1", "M_2")
	if st := s.Stats(); st.Cancelled != 1 {
		t.Fatalf("cancelled %d, want the stale flight", st.Cancelled)
	}
	ff.release("M_2")
	s.Tick()
	if !store.Contains("M_2") {
		t.Fatal("M_2 not admitted")
	}
	if store.Contains("M_1") {
		t.Fatal("cancelled prefetch still admitted M_1")
	}
	if st := s.Stats(); st.Issued != 2 || st.Completed != 1 || st.Cancelled != 1 {
		t.Fatalf("stats %+v", st)
	}
}

// TestSchedulerCancelAfterDueCountsOnce pins the exactly-once count when
// a flight is cancelled after its transfer came due but before the Tick
// delivering it: the fetcher's cancel reports false, the completion
// callback finds the flight gone, counts the cancellation and admits
// nothing.
func TestSchedulerCancelAfterDueCountsOnce(t *testing.T) {
	store := modelcache.MustNewSharded(4, modelcache.LFU, 1)
	ff := newFakeFetcher()
	s, err := NewScheduler(Config{Fetcher: ff, TopK: 1}, store, testModels(3))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	for i := 0; i < 10; i++ {
		s.Observe(0, 1)
		s.Observe(1, 2)
	}
	s.Plan(0)
	ff.release("M_1")
	s.Plan(1) // M_1 is stale, but its transfer is already due
	if st := s.Stats(); st.Cancelled != 0 {
		t.Fatalf("cancelled %d before the due transfer was delivered", st.Cancelled)
	}
	s.Tick()
	if st := s.Stats(); st.Cancelled != 1 || st.Completed != 0 {
		t.Fatalf("stats %+v, want one cancellation and no completion", st)
	}
	if store.Contains("M_1") {
		t.Fatal("cancelled prefetch admitted M_1")
	}
	wantStarted(t, ff, "M_1", "M_2")
}

func TestSchedulerDemandPreemptsPrefetch(t *testing.T) {
	store := modelcache.MustNewSharded(4, modelcache.LFU, 1)
	ff := newFakeFetcher()
	s, err := NewScheduler(Config{Fetcher: ff, TopK: 1}, store, testModels(3))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	for i := 0; i < 10; i++ {
		s.Observe(0, 1)
	}
	s.Plan(0)
	wantStarted(t, ff, "M_1")
	// Miss path: the in-flight prefetch must be cancelled, and the
	// demand stall returned.
	d, err := s.DemandFetch(context.Background(), 2)
	if err != nil {
		t.Fatal(err)
	}
	if d != ff.stall {
		t.Fatalf("stall %v, want %v", d, ff.stall)
	}
	if !slices.Equal(ff.demanded, []string{"M_2"}) {
		t.Fatalf("demand fetches %q, want [M_2]", ff.demanded)
	}
	st := s.Stats()
	if st.Cancelled != 1 {
		t.Fatalf("cancelled %d, want the preempted prefetch", st.Cancelled)
	}
	if st.DemandFetches != 1 || st.DemandStall != ff.stall {
		t.Fatalf("demand stats %+v", st)
	}
	// DemandFetch must not admit: that's the caller's job.
	if store.Contains("M_2") {
		t.Fatal("demand fetch admitted into store")
	}
	// The preempted transfer is gone from the fetcher: ticking admits
	// nothing.
	s.Tick()
	if store.Contains("M_1") {
		t.Fatal("preempted prefetch admitted M_1")
	}
}

func TestSchedulerBudgetSkips(t *testing.T) {
	store := modelcache.MustNewSharded(4, modelcache.LFU, 1)
	ff := newFakeFetcher()
	models := testModels(3) // 1 MiB each
	s, err := NewScheduler(Config{
		Fetcher:     ff,
		TopK:        2,
		BudgetBytes: 1 << 20, // room for exactly one model
	}, store, models)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	// Uniform predictions: candidates 1 and 2. The budget filter runs
	// before the in-flight cap, so the second candidate is counted as a
	// budget skip, not merely held back by the one-flight limit.
	s.Plan(0)
	wantStarted(t, ff, "M_1")
	if st := s.Stats(); st.SkippedBudget != 1 || st.Issued != 1 {
		t.Fatalf("skipped %d issued %d with a one-model budget, want 1/1", st.SkippedBudget, st.Issued)
	}
}

func TestSchedulerDemandOnlyMode(t *testing.T) {
	store := modelcache.MustNewSharded(4, modelcache.LFU, 1)
	ff := newFakeFetcher()
	s, err := NewScheduler(Config{Fetcher: ff, TopK: -1}, store, testModels(3))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for i := 0; i < 10; i++ {
		s.Observe(0, 1)
	}
	s.Plan(0)
	wantStarted(t, ff)
	if _, err := s.DemandFetch(context.Background(), 1); err != nil {
		t.Fatalf("demand fetch in demand-only mode: %v", err)
	}
}

func TestSchedulerSkipsResidentModels(t *testing.T) {
	store := modelcache.MustNewSharded(4, modelcache.LFU, 1)
	if _, _, err := store.Request("M_1", 1); err != nil {
		t.Fatal(err)
	}
	ff := newFakeFetcher()
	s, err := NewScheduler(Config{Fetcher: ff, TopK: 1}, store, testModels(3))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for i := 0; i < 10; i++ {
		s.Observe(0, 1)
	}
	s.Plan(0)
	wantStarted(t, ff)
}

func TestSchedulerCloseDrains(t *testing.T) {
	store := modelcache.MustNewSharded(4, modelcache.LFU, 1)
	ff := newFakeFetcher()
	s, err := NewScheduler(Config{Fetcher: ff}, store, testModels(3))
	if err != nil {
		t.Fatal(err)
	}
	s.Plan(0)
	wantStarted(t, ff, "M_1")
	s.Close()
	if st := s.Stats(); st.Cancelled != 1 {
		t.Fatalf("cancelled %d, want Close to cancel the pending prefetch", st.Cancelled)
	}
	s.Tick()
	if store.Contains("M_1") {
		t.Fatal("prefetch completed after Close")
	}
	s.Plan(0)
	wantStarted(t, ff, "M_1")
	if _, err := s.DemandFetch(context.Background(), 0); err == nil {
		t.Fatal("DemandFetch after Close succeeded")
	}
}

func TestSchedulerConfigValidation(t *testing.T) {
	store := modelcache.MustNewSharded(4, modelcache.LFU, 1)
	ff := newFakeFetcher()
	if _, err := NewScheduler(Config{}, store, testModels(2)); err == nil {
		t.Fatal("nil fetcher accepted")
	}
	if _, err := NewScheduler(Config{Fetcher: ff}, nil, testModels(2)); err == nil {
		t.Fatal("nil store accepted")
	}
	if _, err := NewScheduler(Config{Fetcher: ff}, store, nil); err == nil {
		t.Fatal("empty repertoire accepted")
	}
	s, err := NewScheduler(Config{Fetcher: ff}, store, testModels(2))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := s.DemandFetch(context.Background(), 99); err == nil {
		t.Fatal("out-of-range demand fetch accepted")
	}
}

// errFetcher refuses every fetch; the scheduler must count failures, not
// hang.
type errFetcher struct{}

func (errFetcher) Tick() {}
func (errFetcher) StartBackground(string, func(int64, error)) (func() bool, error) {
	return nil, errors.New("boom")
}
func (errFetcher) FetchModelNow(ctx context.Context, name string) (int64, time.Duration, error) {
	return 0, 0, errors.New("boom")
}

func TestSchedulerCountsFailures(t *testing.T) {
	store := modelcache.MustNewSharded(4, modelcache.LFU, 1)
	s, err := NewScheduler(Config{Fetcher: errFetcher{}, TopK: 1}, store, testModels(2))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	s.Plan(0) // refused at start
	if st := s.Stats(); st.Issued != 1 || st.Failed != 1 {
		t.Fatalf("issued %d failed %d, want 1/1", st.Issued, st.Failed)
	}
	if _, err := s.DemandFetch(context.Background(), 1); err == nil {
		t.Fatal("failing demand fetch succeeded")
	}
	if st := s.Stats(); st.DemandFailures != 1 {
		t.Fatalf("demand failures %d", st.DemandFailures)
	}

	// A transfer that starts but fails on arrival counts too, and frees
	// its slot for the next plan.
	ff := newFakeFetcher()
	s2, err := NewScheduler(Config{Fetcher: ff, TopK: 1}, store, testModels(2))
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	s2.Plan(0)
	ff.fail("M_1", errors.New("transfer failed"))
	s2.Tick()
	if st := s2.Stats(); st.Failed != 1 || st.Completed != 0 {
		t.Fatalf("stats %+v, want one failure", st)
	}
	if store.Contains("M_1") {
		t.Fatal("failed transfer admitted M_1")
	}
	s2.Plan(0)
	wantStarted(t, ff, "M_1", "M_1")
}

// TestSchedulerPlanZeroAllocs pins steady-state planning at zero heap
// allocations: a Plan whose prediction is already in flight, and one
// whose prediction is resident, reuse the scheduler's buffers and start
// nothing.
func TestSchedulerPlanZeroAllocs(t *testing.T) {
	store := modelcache.MustNewSharded(4, modelcache.LFU, 1)
	ff := newFakeFetcher()
	s, err := NewScheduler(Config{Fetcher: ff, TopK: 1}, store, testModels(5))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for i := 0; i < 10; i++ {
		s.Observe(0, 1)
	}
	s.Plan(0) // starts M_1 and sizes the buffers
	pin := func(state string) {
		t.Helper()
		if allocs := testing.AllocsPerRun(100, func() { s.Plan(0) }); allocs != 0 {
			t.Fatalf("Plan with the prediction %s: %v allocs/op, want 0", state, allocs)
		}
	}
	pin("in flight")
	ff.release("M_1")
	s.Tick()
	if !store.Contains("M_1") {
		t.Fatal("M_1 not admitted")
	}
	pin("resident")
	wantStarted(t, ff, "M_1")
}
