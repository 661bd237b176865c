package prefetch

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"anole/internal/netsim"
)

// ErrLinkDown reports a background fetch attempted while the simulated
// link is in the Down state.
var ErrLinkDown = errors.New("prefetch: link down")

// ErrCorrupt reports a transfer whose payload arrived damaged — the
// device's checksum rejected the bytes, so they were quarantined
// (discarded, never admitted to any store). The background path surfaces
// it to the scheduler as an ordinary failure; the demand path retries
// in place.
var ErrCorrupt = errors.New("prefetch: transfer corrupted (checksum mismatch)")

// TransferCorrupter is implemented by links that can deliver damaged
// payloads (faults.Link). The fetcher consults it once per registered
// transfer; a corrupted transfer completes with ErrCorrupt instead of
// clean bytes. Links that never corrupt simply don't implement it.
type TransferCorrupter interface{ CorruptTransfer() bool }

// requestBytes is the uplink cost of one model request (headers only;
// the payload flows downlink).
const requestBytes = 256

// DefaultFrameInterval is the simulated wall-clock per frame tick,
// matching the 10 FPS camera streams of the paper's field runs.
const DefaultFrameInterval = 100 * time.Millisecond

// pendingXfer is one in-flight simulated transfer, registered through
// StartBackground. It completes synchronously inside the Tick (or
// FetchModelNow clock advance) that passes its deadline.
type pendingXfer struct {
	deadline time.Duration // sim-clock completion time
	size     int64
	notify   func(bytes int64, err error)
	// err is the transfer's predetermined outcome (ErrCorrupt for a
	// payload the injector damaged), fixed at registration and read only
	// after completion.
	err error
}

// LinkFetcher is a Fetcher that moves model bytes over a simulated
// netsim.Link in frame-tick time. Each Tick advances the simulated
// clock by one frame interval and steps the link's Markov chain;
// background transfers complete when the clock passes their deadline,
// and an outage (Down) tick pushes every in-flight deadline out by one
// interval — bytes don't move while the link is down.
//
// The miss path (FetchModelNow) never blocks on ticks: it computes the
// stall — including waiting out an outage — advances the clock by it,
// and returns immediately, so the caller can charge the stall as frame
// latency.
//
// LinkFetcher owns its Link after construction: the link is stepped
// only through Tick/FetchModelNow, under the fetcher's lock, making the
// pair safe for concurrent use. Callers must not touch the Link
// directly afterwards.
type LinkFetcher struct {
	mu      sync.Mutex
	link    netsim.Medium
	sizes   map[string]int64
	every   time.Duration
	now     time.Duration
	pending []*pendingXfer
	// downLimit bounds how many frame intervals a demand fetch waits out
	// an outage before failing with ErrLinkDown (SetDemandDownLimit).
	downLimit int

	transfers   int64
	simBytes    int64
	downFails   int64
	corrupted   int64
	quarantined int64
}

// NewLinkFetcher wraps link for the given repertoire. frameInterval ≤ 0
// selects DefaultFrameInterval. A link that also implements
// TransferCorrupter (faults.Link) can deliver damaged payloads; the
// fetcher quarantines them — corrupt bytes never reach a caller or a
// cache.
func NewLinkFetcher(link netsim.Medium, models []Model, frameInterval time.Duration) (*LinkFetcher, error) {
	if link == nil {
		return nil, errors.New("prefetch: nil link")
	}
	if len(models) == 0 {
		return nil, errors.New("prefetch: empty repertoire")
	}
	if frameInterval <= 0 {
		frameInterval = DefaultFrameInterval
	}
	sizes := make(map[string]int64, len(models))
	for _, m := range models {
		if m.Bytes <= 0 {
			return nil, fmt.Errorf("prefetch: model %q has %d bytes", m.Name, m.Bytes)
		}
		sizes[m.Name] = m.Bytes
	}
	return &LinkFetcher{link: link, sizes: sizes, every: frameInterval, downLimit: demandDownCap}, nil
}

// AddModels registers newly published models with the fetcher so their
// bytes can travel the link — the continual-adaptation path. Existing
// entries keep their sizes; re-adding a known name with a different
// size is rejected (the size is the transfer model, silently changing
// it would skew in-flight accounting).
func (f *LinkFetcher) AddModels(models []Model) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	for _, m := range models {
		if m.Bytes <= 0 {
			return fmt.Errorf("prefetch: model %q has %d bytes", m.Name, m.Bytes)
		}
		if have, ok := f.sizes[m.Name]; ok && have != m.Bytes {
			return fmt.Errorf("prefetch: model %q re-added with %d bytes, have %d", m.Name, m.Bytes, have)
		}
	}
	for _, m := range models {
		f.sizes[m.Name] = m.Bytes
	}
	return nil
}

// SetDemandDownLimit bounds how many frame intervals FetchModelNow will
// wait out an outage before failing with ErrLinkDown (default 10000;
// 0 fails immediately). Chaos and degraded-mode runs set a small limit
// so an outage costs a bounded stall and the runtime falls back to a
// resident model instead of freezing the frame.
func (f *LinkFetcher) SetDemandDownLimit(n int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if n < 0 {
		n = 0
	}
	f.downLimit = n
}

// Interval returns the simulated duration of one Tick.
func (f *LinkFetcher) Interval() time.Duration { return f.every }

// Now returns the simulated clock.
func (f *LinkFetcher) Now() time.Duration {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.now
}

// LinkStats is a snapshot of the fetcher's transfer counters.
type LinkStats struct {
	// Transfers / Bytes count clean completed transfers and their
	// payload total.
	Transfers int64
	Bytes     int64
	// DownFails counts fetches refused or abandoned because the link was
	// down.
	DownFails int64
	// Corrupted counts transfers whose payload arrived damaged and was
	// quarantined (discarded before any admission); Quarantined counts
	// the demand-path refetches those corruptions forced.
	Corrupted   int64
	Quarantined int64
}

// Stats returns a snapshot of the fetcher's counters.
func (f *LinkFetcher) Stats() LinkStats {
	f.mu.Lock()
	defer f.mu.Unlock()
	return LinkStats{
		Transfers:   f.transfers,
		Bytes:       f.simBytes,
		DownFails:   f.downFails,
		Corrupted:   f.corrupted,
		Quarantined: f.quarantined,
	}
}

// Tick advances the simulated clock one frame interval and steps the
// link chain, completing due transfers. Transfers registered through
// StartBackground are notified before Tick returns, so a caller driving
// the clock observes their effects (e.g. the scheduler's cache insert)
// deterministically in frame-tick time.
func (f *LinkFetcher) Tick() {
	f.mu.Lock()
	f.now += f.every
	if f.link.Step() == netsim.Down {
		for _, p := range f.pending {
			p.deadline += f.every
		}
	}
	due := f.collectDueLocked()
	f.mu.Unlock()
	notifyDue(due)
}

// collectDueLocked removes due transfers and returns them for
// notification outside the lock (their transfer counters are settled
// here, under it). A transfer predetermined to arrive corrupt is
// quarantined: it counts as a corruption, not a transfer, and completes
// with ErrCorrupt.
func (f *LinkFetcher) collectDueLocked() []*pendingXfer {
	kept := f.pending[:0]
	var due []*pendingXfer
	for _, p := range f.pending {
		if p.deadline > f.now {
			kept = append(kept, p)
			continue
		}
		if p.err != nil {
			f.corrupted++
		} else {
			f.transfers++
			f.simBytes += p.size
		}
		due = append(due, p)
	}
	f.pending = kept
	return due
}

func notifyDue(due []*pendingXfer) {
	for _, p := range due {
		if p.err != nil {
			p.notify(0, p.err)
		} else {
			p.notify(p.size, nil)
		}
	}
}

// registerLocked creates a transfer at the link's current state, drawing
// its corruption outcome from the link's injector when it has one; f.mu
// held. ok=false when the link is down.
func (f *LinkFetcher) registerLocked(size int64, notify func(int64, error)) (*pendingXfer, bool) {
	d, up := f.link.Transfer(requestBytes, size)
	if !up {
		return nil, false
	}
	p := &pendingXfer{deadline: f.now + d, size: size, notify: notify}
	if c, ok := f.link.(TransferCorrupter); ok && c.CorruptTransfer() {
		p.err = ErrCorrupt
	}
	f.pending = append(f.pending, p)
	return p, true
}

// StartBackground registers a background transfer at the link's current
// state and returns immediately; when a later Tick (or a demand fetch's
// clock advance) passes the transfer's deadline, done is invoked
// synchronously from that call before it returns, with the payload size.
// A Down link fails registration with ErrLinkDown. The returned cancel
// reports whether the transfer was still pending — when it returns
// false, done has run or is about to.
func (f *LinkFetcher) StartBackground(name string, done func(bytes int64, err error)) (func() bool, error) {
	f.mu.Lock()
	size, ok := f.sizes[name]
	if !ok {
		f.mu.Unlock()
		return nil, fmt.Errorf("prefetch: unknown model %q", name)
	}
	p, up := f.registerLocked(size, done)
	if !up {
		f.downFails++
		f.mu.Unlock()
		return nil, ErrLinkDown
	}
	f.mu.Unlock()
	cancel := func() bool {
		f.mu.Lock()
		defer f.mu.Unlock()
		for i, q := range f.pending {
			if q == p {
				f.pending = append(f.pending[:i], f.pending[i+1:]...)
				return true
			}
		}
		return false
	}
	return cancel, nil
}

// demandDownCap is the default bound on how many frame intervals a
// demand fetch will wait out an outage before giving up
// (SetDemandDownLimit overrides it).
const demandDownCap = 10000

// demandCorruptCap bounds how many corrupted arrivals one demand fetch
// will quarantine and refetch before giving up; at any corruption rate
// below certainty the retry loop terminates long before this.
const demandCorruptCap = 100

// FetchModelNow is the miss path: the device has no model to run, so it
// waits for the link — stepping frame intervals through an outage if
// necessary, up to the demand down limit — transfers, and returns the
// whole stall at once. A payload that arrives corrupted is quarantined
// and refetched in place, the extra transfer time joining the stall; the
// caller only ever sees clean bytes. The simulated clock advances by the
// stall, which also lets concurrently registered background transfers
// complete on time.
func (f *LinkFetcher) FetchModelNow(ctx context.Context, name string) (int64, time.Duration, error) {
	if err := ctx.Err(); err != nil {
		return 0, 0, err
	}
	f.mu.Lock()
	size, ok := f.sizes[name]
	if !ok {
		f.mu.Unlock()
		return 0, 0, fmt.Errorf("prefetch: unknown model %q", name)
	}
	var stall time.Duration
	waited := 0
	for attempt := 0; ; attempt++ {
		for f.link.State() == netsim.Down {
			if waited >= f.downLimit {
				f.downFails++
				f.mu.Unlock()
				return 0, stall, fmt.Errorf("prefetch: %w after %d frames fetching %q", ErrLinkDown, waited, name)
			}
			waited++
			f.now += f.every
			stall += f.every
			for _, p := range f.pending {
				p.deadline += f.every
			}
			f.link.Step()
		}
		d, up := f.link.Transfer(requestBytes, size)
		if !up {
			// The link can drop between the outage wait and the transfer
			// (a fault injector forcing Down mid-loop); re-enter the wait.
			continue
		}
		f.now += d
		stall += d
		corrupt := false
		if c, ok := f.link.(TransferCorrupter); ok && c.CorruptTransfer() {
			corrupt = true
		}
		if !corrupt {
			due := f.collectDueLocked()
			f.transfers++
			f.simBytes += size
			f.mu.Unlock()
			notifyDue(due)
			return size, stall, nil
		}
		// Quarantine: the bytes failed their checksum and are discarded;
		// pay the wasted transfer and fetch again.
		f.corrupted++
		f.quarantined++
		if attempt+1 >= demandCorruptCap {
			due := f.collectDueLocked()
			f.mu.Unlock()
			notifyDue(due)
			return 0, stall, fmt.Errorf("prefetch: %w %d times fetching %q", ErrCorrupt, demandCorruptCap, name)
		}
	}
}
