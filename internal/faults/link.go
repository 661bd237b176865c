package faults

import (
	"time"

	"anole/internal/netsim"
	"anole/internal/xrand"
)

// Link wraps a netsim.Medium with seeded forced outages and payload
// corruption. During a forced burst the link reports Down from State,
// Step and Transfer, whatever the underlying Markov chain says; layered
// on the chain's natural churn this produces flapping connectivity.
// Corruption is decided per transfer through CorruptTransfer, which
// prefetch.LinkFetcher consults when registering a transfer.
//
// Like the Link it wraps, a faults.Link is not safe for concurrent use
// on its own; prefetch.LinkFetcher owns it after construction and steps
// it under the fetcher's lock.
type Link struct {
	inner  netsim.Medium
	cfg    Config
	rng    *xrand.RNG
	steps  int
	stats  Stats
	forced int // remaining steps of the current forced outage
}

var _ netsim.Medium = (*Link)(nil)

// WrapLink wraps inner with the fault schedule derived from cfg.
func WrapLink(inner netsim.Medium, cfg Config) *Link {
	if cfg.OutageMeanSteps <= 0 {
		cfg.OutageMeanSteps = 5
	}
	return &Link{inner: inner, cfg: cfg, rng: xrand.NewLabeled(cfg.Seed, "faults-link")}
}

// State returns the effective link state: Down during a forced outage,
// otherwise whatever the wrapped link reports.
func (l *Link) State() netsim.LinkState {
	if l.forced > 0 {
		return netsim.Down
	}
	return l.inner.State()
}

// Step advances both the wrapped chain and the outage schedule one frame
// interval. The chain always steps — a forced outage masks the state, it
// does not freeze the underlying weather — and a new burst may start
// with probability OutageRate once the grace window has passed.
func (l *Link) Step() netsim.LinkState {
	s := l.inner.Step()
	l.steps++
	if l.forced > 0 {
		l.forced--
		l.stats.OutageSteps++
		return netsim.Down
	}
	if l.active() && l.cfg.OutageRate > 0 && l.rng.Bool(l.cfg.OutageRate) {
		// The burst includes this step.
		l.forced = l.geometric(l.cfg.OutageMeanSteps) - 1
		l.stats.Outages++
		l.stats.OutageSteps++
		return netsim.Down
	}
	return s
}

// Transfer fails (ok=false) during a forced outage, otherwise defers to
// the wrapped link.
func (l *Link) Transfer(upBytes, downBytes int64) (time.Duration, bool) {
	if l.forced > 0 {
		return 0, false
	}
	return l.inner.Transfer(upBytes, downBytes)
}

// CorruptTransfer reports whether the next registered transfer's payload
// should arrive damaged; the draw both decides and counts the fault.
// Implements prefetch.TransferCorrupter.
func (l *Link) CorruptTransfer() bool {
	if !l.active() || l.cfg.CorruptRate <= 0 {
		return false
	}
	if l.rng.Bool(l.cfg.CorruptRate) {
		l.stats.Corrupted++
		return true
	}
	return false
}

// ForceOutage starts a scripted outage of exactly steps Step calls,
// regardless of rates — deterministic tests use it to place an outage
// at a known frame and measure recovery.
func (l *Link) ForceOutage(steps int) {
	if steps <= 0 {
		return
	}
	if l.forced == 0 {
		l.stats.Outages++
	}
	l.forced = steps
}

// Stats returns the fault counters so far.
func (l *Link) Stats() Stats { return l.stats }

// active reports whether the grace window has passed. Step increments
// steps before consulting it, so the first GraceSteps steps are exactly
// the protected ones.
func (l *Link) active() bool { return l.steps > l.cfg.GraceSteps }

// geometric draws a burst length ≥ 1 with the given mean (clamped to 1).
func (l *Link) geometric(mean float64) int {
	if mean <= 1 {
		return 1
	}
	// Geometric on {1, 2, ...} with success probability 1/mean.
	p := 1 / mean
	n := 1
	for !l.rng.Bool(p) {
		n++
	}
	return n
}
