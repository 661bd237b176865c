// Package breaker implements the circuit breaker guarding the
// device↔cloud path. Repeated fetch failures — outages, corrupted
// payloads — trip the breaker open; while open, callers fail fast
// instead of stacking doomed attempts on a dead link. After a cooldown
// the breaker goes half-open and tentatively admits traffic: the first
// success closes it, the first failure reopens it. The prefetch
// scheduler feeds it every fetch outcome, demand and background alike,
// so a link that cannot serve demand fetches also pauses speculative
// prefetching.
//
// Time is read through an injectable monotonic clock (wall time by
// default); the runtime passes the simulated frame-tick clock
// (prefetch.LinkFetcher.Now), keeping chaos runs deterministic.
package breaker

import (
	"fmt"
	"sync"
	"time"

	"anole/internal/telemetry"
)

// State is the breaker's admission mode.
type State uint8

// Breaker states.
const (
	// Closed admits all traffic; consecutive failures are counted.
	Closed State = iota
	// Open rejects all traffic until the cooldown elapses.
	Open
	// HalfOpen tentatively admits traffic after the cooldown: the first
	// success closes the breaker, the first failure reopens it. Admission
	// is not limited to a single probe — a cancelled probe must not
	// wedge the breaker — but any failure snaps it back open.
	HalfOpen
)

func (s State) String() string {
	switch s {
	case Closed:
		return "closed"
	case Open:
		return "open"
	case HalfOpen:
		return "half-open"
	default:
		return fmt.Sprintf("state(%d)", uint8(s))
	}
}

// Config parameterizes a Breaker. The zero value selects the defaults.
type Config struct {
	// FailureThreshold is the consecutive-failure count that opens the
	// breaker (default 5).
	FailureThreshold int
	// Cooldown is how long an open breaker rejects before going
	// half-open (default 2s). A failure while open refreshes the
	// cooldown, so the probe happens Cooldown after the *last* failure.
	Cooldown time.Duration
	// Now is the monotonic clock the cooldown is measured on. Nil
	// selects the wall clock (time.Since construction); simulated paths
	// inject their own — prefetch.LinkFetcher.Now — so breaker timing
	// follows the frame-tick clock deterministically.
	Now func() time.Duration
	// Metrics, when non-nil, registers the breaker's state gauge and
	// transition counters (anole_breaker_*) on the given telemetry
	// registry, so /metrics shows admission mode and trip counts live.
	Metrics *telemetry.Registry
	// OnTransition, when non-nil, observes every state change with the
	// old and new states (an Open-state cooldown refresh is not a
	// transition). The flight recorder hangs its breaker events here.
	// It runs with the breaker's lock held: keep it fast and never call
	// back into the breaker.
	OnTransition func(from, to State)
}

// Breaker is a three-state circuit breaker. All methods are safe for
// concurrent use. Construct with New.
type Breaker struct {
	mu        sync.Mutex
	cfg       Config
	state     State
	failures  int
	openedAt  time.Duration
	opens     int64
	halfOpens int64

	// Telemetry handles (nil-safe no-ops without Config.Metrics).
	stateGauge   *telemetry.Gauge
	opensCtr     *telemetry.Counter
	halfOpensCtr *telemetry.Counter
}

// New builds a breaker; zero-valued Config fields take the documented
// defaults.
func New(cfg Config) *Breaker {
	if cfg.FailureThreshold <= 0 {
		cfg.FailureThreshold = 5
	}
	if cfg.Cooldown <= 0 {
		cfg.Cooldown = 2 * time.Second
	}
	if cfg.Now == nil {
		start := time.Now()
		cfg.Now = func() time.Duration { return time.Since(start) }
	}
	return &Breaker{
		cfg:          cfg,
		stateGauge:   cfg.Metrics.Gauge("anole_breaker_state", "admission mode: 0 closed, 1 open, 2 half-open"),
		opensCtr:     cfg.Metrics.Counter("anole_breaker_opens_total", "transitions to Open"),
		halfOpensCtr: cfg.Metrics.Counter("anole_breaker_half_open_probes_total", "cooldown expiries admitting a half-open probe window"),
	}
}

// stateLocked applies the open→half-open transition lazily: the breaker
// has no timers, it re-evaluates the cooldown whenever it is consulted.
func (b *Breaker) stateLocked() State {
	if b.state == Open && b.cfg.Now()-b.openedAt >= b.cfg.Cooldown {
		b.state = HalfOpen
		b.halfOpens++
		b.halfOpensCtr.Inc()
		b.stateGauge.Set(float64(HalfOpen))
		b.notifyLocked(Open, HalfOpen)
	}
	return b.state
}

// State returns the current state, applying the cooldown transition.
func (b *Breaker) State() State {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.stateLocked()
}

// Allow reports whether an attempt may proceed: true when closed or
// half-open, false while open.
func (b *Breaker) Allow() bool {
	return b.State() != Open
}

// Success records a successful attempt, closing the breaker from any
// state and resetting the failure count.
func (b *Breaker) Success() {
	b.mu.Lock()
	defer b.mu.Unlock()
	from := b.state
	b.state = Closed
	b.failures = 0
	b.stateGauge.Set(float64(Closed))
	if from != Closed {
		b.notifyLocked(from, Closed)
	}
}

// Failure records a failed attempt. In Closed it counts toward the
// threshold; in HalfOpen it reopens immediately (the probe failed); in
// Open it refreshes the cooldown, pushing the next probe out.
func (b *Breaker) Failure() {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.stateLocked() {
	case Closed:
		b.failures++
		if b.failures >= b.cfg.FailureThreshold {
			b.openLocked()
		}
	case HalfOpen:
		b.openLocked()
	case Open:
		b.openedAt = b.cfg.Now()
	}
}

// openLocked transitions to Open and stamps the cooldown start; b.mu
// held.
func (b *Breaker) openLocked() {
	from := b.state
	b.state = Open
	b.failures = 0
	b.openedAt = b.cfg.Now()
	b.opens++
	b.opensCtr.Inc()
	b.stateGauge.Set(float64(Open))
	b.notifyLocked(from, Open)
}

// notifyLocked invokes the transition hook; b.mu held.
func (b *Breaker) notifyLocked(from, to State) {
	if b.cfg.OnTransition != nil {
		b.cfg.OnTransition(from, to)
	}
}

// Opens returns how many times the breaker has tripped open.
func (b *Breaker) Opens() int64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.opens
}

// HalfOpens returns how many cooldown expiries have moved the breaker
// into HalfOpen — the number of probe windows the path was granted.
// Chaos reports expose it as breakerHalfOpenProbes.
func (b *Breaker) HalfOpens() int64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.stateLocked()
	return b.halfOpens
}
