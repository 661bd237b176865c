package prefetch

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"anole/internal/breaker"
	"anole/internal/telemetry"
)

// Fetcher moves one model's bytes from the repository to the device in
// simulated frame time. There is one background path and one critical
// path, and every completion lands inside a call the runtime makes — no
// transfer finishes on a goroutine of its own:
//
//   - StartBackground is the background path. It registers the transfer
//     and returns at once; the fetcher invokes done synchronously from
//     inside the Tick (or the FetchModelNow clock advance) that passes
//     the transfer's deadline. Completion therefore lands before that
//     call returns, so a model prefetched with enough frames of lead
//     time is deterministically resident when the switch arrives.
//     cancel reports whether the transfer was still pending; when it
//     returns false the done callback has run or is about to, and owns
//     the accounting.
//   - FetchModelNow is the critical (miss) path. It never waits on
//     ticks: it returns the payload size and the stall immediately so
//     the caller can charge it as frame latency.
//   - Tick advances the fetcher's clock by one frame.
//
// LinkFetcher is the implementation; tests substitute fakes.
// Implementations must be safe for concurrent use.
type Fetcher interface {
	Tick()
	StartBackground(name string, done func(bytes int64, err error)) (cancel func() bool, err error)
	FetchModelNow(ctx context.Context, name string) (bytes int64, d time.Duration, err error)
}

// Store is the cache surface the scheduler warms. *modelcache.Sharded
// satisfies it; the store must be safe for concurrent use, since
// completed prefetches insert from inside the fetcher's Tick or
// FetchModelNow, whichever goroutine drives it.
type Store interface {
	Prefetch(key string, size int) (admitted bool, evicted []string, err error)
	Contains(key string) bool
}

// Model describes one repertoire model the scheduler can prefetch.
type Model struct {
	Name string
	// Bytes is the over-the-wire size used for budget accounting and,
	// by LinkFetcher, for transfer-time computation.
	Bytes int64
}

// Planning constants. minProb skips predictions below this transition
// probability: with little history every candidate looks alike, and
// fetching on noise wastes the link. maxInFlight serializes background
// fetches: prefetches share one link, and one at a time keeps the
// simulated transfer model honest. smoothing is the transition model's
// Laplace pseudo-count.
const (
	minProb     = 0.02
	maxInFlight = 1
	smoothing   = 1
)

// Config parameterizes a Scheduler. Background completions land inside
// Fetcher.Tick or a demand fetch's FetchModelNow, never on a goroutine
// of the scheduler's own.
type Config struct {
	// Fetcher moves the bytes (required).
	Fetcher Fetcher
	// TopK is how many predicted next models each Plan considers
	// (default 2). A negative TopK disables prefetching entirely —
	// demand fetches still work — which is the "prefetch off" arm of
	// the benchmarks.
	TopK int
	// BudgetBytes caps the bytes a single Plan may have in flight
	// (0 = unlimited). Candidates beyond the budget are skipped and
	// counted, not queued.
	BudgetBytes int64
	// Metrics, when non-nil, is the telemetry registry the scheduler's
	// counters are registered on (anole_prefetch_*), so a shared
	// registry exposes them live on /metrics. Nil keeps them in a
	// private registry; Stats reads the same handles either way.
	Metrics *telemetry.Registry
	// Breaker, when non-nil, is the circuit breaker shared with the
	// fetch path. Every fetch outcome — background or demand — feeds it;
	// while it is open, Plan issues no prefetches (the link is known
	// bad, speculative traffic would only pile failures on it). The
	// demand path still fetches — a miss has no alternative — and a
	// successful fetch while the breaker is half-open closes it, which
	// resumes prefetching: recovery needs no extra machinery.
	Breaker *breaker.Breaker
}

// SchedulerStats is a snapshot of the scheduler's counters.
type SchedulerStats struct {
	// Issued / Completed / Cancelled / Failed count background
	// prefetches: started, finished (bytes resident), cancelled because
	// the predicted target changed or the miss path preempted them, and
	// failed (link down, transport error).
	Issued    int64
	Completed int64
	Cancelled int64
	Failed    int64
	// SkippedBudget counts predictions dropped by BudgetBytes.
	SkippedBudget int64
	// SkippedBreaker counts Plans dropped whole because the shared
	// circuit breaker was open; BreakerOpens is how many times that
	// breaker has tripped (both zero without a breaker).
	SkippedBreaker int64
	BreakerOpens   int64
	// SkippedPaused counts Plans dropped whole while planning was
	// paused by resource pressure (see SetPaused).
	SkippedPaused int64
	// PrefetchedBytes is the payload total of completed prefetches.
	PrefetchedBytes int64
	// DemandFetches / DemandFailures / DemandBytes / DemandStall
	// describe the on-demand miss path routed through DemandFetch.
	DemandFetches  int64
	DemandFailures int64
	DemandBytes    int64
	DemandStall    time.Duration
	// Observations is the number of switches the transition model has
	// seen.
	Observations int64
}

// flight is one pending background transfer; cancel is the fetcher's
// StartBackground cancel.
type flight struct{ cancel func() bool }

// Scheduler warms the model cache ahead of predicted switches. Plan
// consults the transition model and starts background fetches for the
// likeliest absent models; DemandFetch serves the miss path with strict
// priority (in-flight prefetches are cancelled and new ones held until
// it returns, so prefetch traffic never starves an on-demand fetch).
// All methods are safe for concurrent use.
type Scheduler struct {
	cfg    Config
	markov *Markov
	store  Store
	models []Model

	mu           sync.Mutex
	inflight     map[int]*flight
	demandActive int
	closed       bool
	// preds and order are Plan's working buffers, reused under mu so
	// that planning does not allocate.
	preds []Prediction
	order []int

	// paused suspends background planning (see SetPaused); the demand
	// path is unaffected. Atomic so the pressure monitor can flip it
	// from any goroutine without taking the scheduler lock.
	paused atomic.Bool

	// Counters live on the telemetry registry (Config.Metrics or a
	// private one); SchedulerStats is a snapshot view over them.
	issued, completed, cancelled, failed *telemetry.Counter
	skippedBudget, prefetchedBytes       *telemetry.Counter
	skippedBreaker, skippedPaused        *telemetry.Counter
	demandFetches, demandFailures        *telemetry.Counter
	demandBytes                          *telemetry.Counter
	demandStall                          *telemetry.Histogram
}

// NewScheduler builds a scheduler over the given store and repertoire.
// The store must be the same cache the runtime resolves requests
// against, and must be safe for concurrent use.
func NewScheduler(cfg Config, store Store, models []Model) (*Scheduler, error) {
	if cfg.Fetcher == nil {
		return nil, errors.New("prefetch: nil fetcher")
	}
	if store == nil {
		return nil, errors.New("prefetch: nil store")
	}
	if len(models) == 0 {
		return nil, errors.New("prefetch: empty repertoire")
	}
	if cfg.TopK == 0 {
		cfg.TopK = 2
	}
	markov, err := NewMarkov(len(models), smoothing)
	if err != nil {
		return nil, err
	}
	reg := cfg.Metrics
	if reg == nil {
		reg = telemetry.NewRegistry()
	}
	return &Scheduler{
		cfg:      cfg,
		markov:   markov,
		store:    store,
		models:   models,
		inflight: make(map[int]*flight),

		issued:          reg.Counter("anole_prefetch_issued_total", "background prefetches started"),
		completed:       reg.Counter("anole_prefetch_completed_total", "background prefetches whose bytes became resident"),
		cancelled:       reg.Counter("anole_prefetch_cancelled_total", "background prefetches cancelled by replanning or demand preemption"),
		failed:          reg.Counter("anole_prefetch_failed_total", "background prefetches that failed (link down, transport error)"),
		skippedBudget:   reg.Counter("anole_prefetch_skipped_budget_total", "predictions dropped by BudgetBytes"),
		skippedBreaker:  reg.Counter("anole_prefetch_skipped_breaker_total", "plans dropped whole while the circuit breaker was open"),
		skippedPaused:   reg.Counter("anole_prefetch_skipped_paused_total", "plans dropped whole while planning was paused by resource pressure"),
		prefetchedBytes: reg.Counter("anole_prefetch_bytes_total", "payload bytes of completed prefetches"),
		demandFetches:   reg.Counter("anole_prefetch_demand_fetches_total", "on-demand (miss path) fetches that succeeded"),
		demandFailures:  reg.Counter("anole_prefetch_demand_failures_total", "on-demand fetches that failed"),
		demandBytes:     reg.Counter("anole_prefetch_demand_bytes_total", "payload bytes of successful demand fetches"),
		demandStall:     reg.Histogram("anole_prefetch_demand_stall_seconds", "per-fetch stall charged to frames by the demand path", nil),
	}, nil
}

// Markov exposes the underlying transition model (read-mostly; Observe
// through the scheduler).
func (s *Scheduler) Markov() *Markov { return s.markov }

// Observe records one model switch into the transition model.
func (s *Scheduler) Observe(from, to int) { s.markov.Observe(from, to) }

// Tick advances the fetcher's clock by one frame, completing the
// background transfers that come due. The runtime calls it once per
// processed frame.
func (s *Scheduler) Tick() { s.cfg.Fetcher.Tick() }

// Plan reconciles the in-flight prefetch set with the predictions for
// the current model: fetches whose target is no longer predicted (or
// already resident) are cancelled, and the likeliest absent models are
// fetched in the background, within minProb, BudgetBytes and
// maxInFlight. Plans issued while an on-demand fetch is active are
// dropped — the miss path owns the link.
func (s *Scheduler) Plan(current int) {
	if s.cfg.TopK < 0 {
		return
	}
	if s.paused.Load() {
		// Resource pressure paused speculative work; the demand path
		// still flows (a miss has no alternative).
		s.skippedPaused.Inc()
		return
	}
	if br := s.cfg.Breaker; br != nil && !br.Allow() {
		// The link is known bad; speculative traffic would only pile
		// failures on it. The demand path still probes, and its first
		// success closes the breaker, resuming prefetching here.
		s.skippedBreaker.Inc()
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed || s.demandActive > 0 {
		return
	}
	s.preds = s.markov.TopKInto(s.preds, current, s.cfg.TopK)
	limited := s.cfg.BudgetBytes > 0
	remaining := s.cfg.BudgetBytes
	s.order = s.order[:0]
	for _, p := range s.preds {
		if p.Prob < minProb {
			continue
		}
		m := s.models[p.Model]
		if s.store.Contains(m.Name) {
			continue
		}
		if limited {
			if m.Bytes > remaining {
				s.skippedBudget.Inc()
				continue
			}
			remaining -= m.Bytes
		}
		s.order = append(s.order, p.Model)
	}
	for idx, fl := range s.inflight {
		if !slices.Contains(s.order, idx) {
			s.cancelLocked(idx, fl)
		}
	}
	for _, idx := range s.order {
		if _, dup := s.inflight[idx]; dup {
			continue
		}
		if len(s.inflight) >= maxInFlight {
			break
		}
		s.startLocked(idx)
	}
}

// cancelLocked forgets the flight immediately so its slot frees up;
// s.mu held. Exactly one party counts the cancellation: this caller
// when the transfer was still pending, otherwise finishBackground,
// which finds the flight gone from inflight.
func (s *Scheduler) cancelLocked(idx int, fl *flight) {
	delete(s.inflight, idx)
	if fl.cancel() {
		s.cancelled.Inc()
	}
}

// startLocked launches the background fetch of model idx; s.mu held.
// The done callback can only fire from a later Tick (every transfer
// costs at least its RTT), never from inside StartBackground, so
// registering the flight after the call is safe.
func (s *Scheduler) startLocked(idx int) {
	fl := &flight{}
	cancel, err := s.cfg.Fetcher.StartBackground(s.models[idx].Name, func(bytes int64, err error) {
		s.finishBackground(idx, fl, bytes, err)
	})
	s.issued.Inc()
	if err != nil {
		s.failed.Inc()
		s.recordOutcome(err)
		return
	}
	fl.cancel = cancel
	s.inflight[idx] = fl
}

// recordOutcome feeds one fetch outcome to the shared breaker (a no-op
// without one). Cancellations are neither success nor failure — they say
// nothing about the link.
func (s *Scheduler) recordOutcome(err error) {
	br := s.cfg.Breaker
	if br == nil {
		return
	}
	switch {
	case err == nil:
		br.Success()
	case errors.Is(err, context.Canceled):
	default:
		br.Failure()
	}
}

// finishBackground settles one background flight. It runs inside
// the fetcher's Tick (or a demand fetch's clock advance) with no
// scheduler lock held, so taking s.mu and the store's lock here cannot
// deadlock against Plan/DemandFetch, which take s.mu before the
// fetcher's.
func (s *Scheduler) finishBackground(idx int, fl *flight, bytes int64, err error) {
	s.mu.Lock()
	current := s.inflight[idx] == fl
	if current {
		delete(s.inflight, idx)
	}
	name := s.models[idx].Name
	s.mu.Unlock()
	if !current {
		// Cancelled between the transfer coming due and this callback;
		// the canceller saw cancel report false and left the count to us.
		s.cancelled.Inc()
		return
	}
	s.recordOutcome(err)
	if err != nil {
		s.failed.Inc()
		return
	}
	// Slot-unit admission, matching the runtime's Request size.
	if _, _, perr := s.store.Prefetch(name, 1); perr == nil {
		s.completed.Inc()
		s.prefetchedBytes.Add(bytes)
	} else {
		s.failed.Inc()
	}
}

// DemandFetch serves a cache miss: it preempts every in-flight
// prefetch, fetches the model on the critical path, and returns the
// stall the caller should charge to the frame. The model is NOT
// admitted to the store — the caller admits it through its normal
// Request path so hit/miss accounting stays in one place.
func (s *Scheduler) DemandFetch(ctx context.Context, model int) (time.Duration, error) {
	s.mu.Lock()
	if model < 0 || model >= len(s.models) {
		n := len(s.models)
		s.mu.Unlock()
		return 0, fmt.Errorf("prefetch: model %d of %d", model, n)
	}
	if s.closed {
		s.mu.Unlock()
		return 0, errors.New("prefetch: scheduler closed")
	}
	name := s.models[model].Name
	s.demandActive++
	for idx, fl := range s.inflight {
		s.cancelLocked(idx, fl)
	}
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		s.demandActive--
		s.mu.Unlock()
	}()

	bytes, d, err := s.cfg.Fetcher.FetchModelNow(ctx, name)
	s.recordOutcome(err)
	if err != nil {
		s.demandFailures.Inc()
		return 0, err
	}
	s.demandFetches.Inc()
	s.demandBytes.Add(bytes)
	s.demandStall.Observe(d.Seconds())
	return d, nil
}

// ExtendModels appends newly published models to the repertoire the
// scheduler can fetch and widens the transition model to match — the
// continual-adaptation path, called when a rollout deploys a bundle
// with appended models. Existing indices, in-flight fetches and
// recorded transitions are untouched. Duplicate names are rejected:
// the name is the fetch key, and two indices sharing one key would
// corrupt budget accounting.
func (s *Scheduler) ExtendModels(more []Model) error {
	if len(more) == 0 {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return errors.New("prefetch: scheduler closed")
	}
	known := make(map[string]bool, len(s.models)+len(more))
	for _, m := range s.models {
		known[m.Name] = true
	}
	grown := make([]Model, 0, len(s.models)+len(more))
	grown = append(grown, s.models...)
	for _, m := range more {
		if known[m.Name] {
			return fmt.Errorf("prefetch: duplicate model %q", m.Name)
		}
		known[m.Name] = true
		grown = append(grown, m)
	}
	s.models = grown
	s.markov.Grow(len(grown))
	return nil
}

// Stats returns a snapshot of the scheduler counters.
func (s *Scheduler) Stats() SchedulerStats {
	st := SchedulerStats{
		Issued:          s.issued.Value(),
		Completed:       s.completed.Value(),
		Cancelled:       s.cancelled.Value(),
		Failed:          s.failed.Value(),
		SkippedBudget:   s.skippedBudget.Value(),
		SkippedBreaker:  s.skippedBreaker.Value(),
		SkippedPaused:   s.skippedPaused.Value(),
		PrefetchedBytes: s.prefetchedBytes.Value(),
		DemandFetches:   s.demandFetches.Value(),
		DemandFailures:  s.demandFailures.Value(),
		DemandBytes:     s.demandBytes.Value(),
		DemandStall:     time.Duration(s.demandStall.Sum() * 1e9),
		Observations:    s.markov.Observations(),
	}
	if s.cfg.Breaker != nil {
		st.BreakerOpens = s.cfg.Breaker.Opens()
	}
	return st
}

// SetPaused suspends (true) or resumes (false) background planning.
// While paused, Plan returns immediately (counted in SkippedPaused)
// without touching in-flight fetches; DemandFetch is unaffected. The
// pressure monitor flips this at the Elevated level — speculative
// link and memory traffic is the first thing to go when resources
// tighten, because dropping it degrades nothing that is being served.
func (s *Scheduler) SetPaused(p bool) { s.paused.Store(p) }

// Close marks the scheduler closed and cancels every pending
// background transfer. The scheduler is unusable afterwards.
func (s *Scheduler) Close() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.closed = true
	for idx, fl := range s.inflight {
		s.cancelLocked(idx, fl)
	}
}
