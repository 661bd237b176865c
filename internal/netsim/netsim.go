// Package netsim simulates the unstable device↔cloud wireless link that
// motivates Anole (§I): offloading inference to a server gives access to
// a big model, but a moving device's connection degrades and drops, so
// per-frame latency becomes unpredictable. The link is a three-state
// Markov chain (Good / Degraded / Down) with per-state bandwidth and
// round-trip time; transfers sample the chain per frame.
package netsim

import (
	"fmt"
	"time"

	"anole/internal/xrand"
)

// LinkState is the instantaneous link quality.
type LinkState uint8

// Link states.
const (
	Good LinkState = iota
	Degraded
	Down
)

func (s LinkState) String() string {
	switch s {
	case Good:
		return "good"
	case Degraded:
		return "degraded"
	case Down:
		return "down"
	default:
		return fmt.Sprintf("state(%d)", uint8(s))
	}
}

// Config parameterizes a Link.
type Config struct {
	// GoodBandwidthMBps / GoodRTT describe the healthy link;
	// DegradedBandwidthMBps / DegradedRTT the impaired one.
	GoodBandwidthMBps     float64
	GoodRTT               time.Duration
	DegradedBandwidthMBps float64
	DegradedRTT           time.Duration
	// Transition[i][j] is the per-step probability of moving from
	// state i to state j; rows must sum to 1.
	Transition [3][3]float64
}

// DefaultConfig models a vehicular LTE link: mostly good, occasionally
// degraded, with outage bursts. stability in [0,1] scales how sticky the
// Good state is (1 = never leaves Good, 0 = the default churn).
func DefaultConfig(stability float64) Config {
	if stability < 0 {
		stability = 0
	}
	if stability > 1 {
		stability = 1
	}
	leaveGood := float64(0.08 * (1 - stability))
	return Config{
		GoodBandwidthMBps:     6,
		GoodRTT:               40 * time.Millisecond,
		DegradedBandwidthMBps: 0.6,
		DegradedRTT:           180 * time.Millisecond,
		Transition: [3][3]float64{
			{1 - leaveGood, leaveGood * 0.75, leaveGood * 0.25},
			{0.35, 0.55, 0.10},
			{0.25, 0.25, 0.50},
		},
	}
}

// Validate checks that the transition matrix is stochastic.
func (c Config) Validate() error {
	for i, row := range c.Transition {
		var sum float64
		for _, p := range row {
			if p < 0 {
				return fmt.Errorf("netsim: negative transition probability in row %d", i)
			}
			sum += p
		}
		if sum < 0.999 || sum > 1.001 {
			return fmt.Errorf("netsim: transition row %d sums to %v", i, sum)
		}
	}
	if c.GoodBandwidthMBps <= 0 || c.DegradedBandwidthMBps <= 0 {
		return fmt.Errorf("netsim: non-positive bandwidth")
	}
	return nil
}

// Medium is the link surface a transfer simulator consumes: the
// instantaneous state, the per-frame Markov step, and the cost of one
// transfer at the current state. Link implements it directly; fault
// injectors (internal/faults) wrap one Medium in another, so everything
// above the link — prefetch.LinkFetcher in particular — works unchanged
// over a faulty link.
type Medium interface {
	State() LinkState
	Step() LinkState
	Transfer(upBytes, downBytes int64) (time.Duration, bool)
}

// Link is the stateful Markov link. It is not safe for concurrent use.
type Link struct {
	cfg   Config
	rng   *xrand.RNG
	state LinkState

	steps    int
	downtime int
}

var _ Medium = (*Link)(nil)

// NewLink creates a link starting in the Good state.
func NewLink(cfg Config, rng *xrand.RNG) (*Link, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if rng == nil {
		rng = xrand.New(0)
	}
	return &Link{cfg: cfg, rng: rng, state: Good}, nil
}

// State returns the current link state.
func (l *Link) State() LinkState { return l.state }

// Step advances the Markov chain one frame interval and returns the new
// state.
func (l *Link) Step() LinkState {
	row := l.cfg.Transition[l.state]
	l.state = LinkState(l.rng.Categorical(row[:]))
	l.steps++
	if l.state == Down {
		l.downtime++
	}
	return l.state
}

// Transfer returns the round-trip time of moving `bytes` up and
// `downBytes` down at the current state, and ok=false when the link is
// down (the transfer fails; the caller decides between dropping the frame
// and falling back).
func (l *Link) Transfer(upBytes, downBytes int64) (time.Duration, bool) {
	var bw float64
	var rtt time.Duration
	switch l.state {
	case Good:
		bw, rtt = l.cfg.GoodBandwidthMBps, l.cfg.GoodRTT
	case Degraded:
		bw, rtt = l.cfg.DegradedBandwidthMBps, l.cfg.DegradedRTT
	default:
		return 0, false
	}
	seconds := float64(upBytes+downBytes) / (bw * (1 << 20))
	return rtt + time.Duration(seconds*float64(time.Second)), true
}

// DownFraction reports the fraction of steps spent in the Down state.
func (l *Link) DownFraction() float64 {
	if l.steps == 0 {
		return 0
	}
	return float64(l.downtime) / float64(l.steps)
}
