package pressure

import "time"

// Rung is one step of the shed ladder. The ladder escalates under
// sustained deadline misses and relaxes under sustained headroom:
//
//	ShedNone      — full pipeline, no degradation
//	ShedPrefetch  — serve normally but suppress background prefetch plans
//	ShedDowngrade — serve the cheapest resident model, no demand fetches
//	ShedDrop      — drop frames with a counted verdict (probe frames
//	                still serve so the controller keeps observing)
type Rung int

const (
	ShedNone Rung = iota
	ShedPrefetch
	ShedDowngrade
	ShedDrop
)

func (r Rung) String() string {
	switch r {
	case ShedNone:
		return "none"
	case ShedPrefetch:
		return "prefetch"
	case ShedDowngrade:
		return "downgrade"
	case ShedDrop:
		return "drop"
	default:
		return "unknown"
	}
}

// ControllerConfig tunes the deadline controller. Zero values select
// the documented defaults.
type ControllerConfig struct {
	// Target is the per-frame deadline: a tick whose worst served
	// frame exceeds it counts as congested. Required (the controller
	// is inert when Target <= 0).
	Target time.Duration
	// EscalateTicks is how many consecutive congested ticks must
	// accumulate before the ladder steps up one rung. Default: 4.
	EscalateTicks int
	// RelaxTicks is how many consecutive uncongested ticks must
	// accumulate before the ladder steps down one rung. Default: 8.
	RelaxTicks int
}

func (c *ControllerConfig) withDefaults() ControllerConfig {
	out := *c
	if out.EscalateTicks <= 0 {
		out.EscalateTicks = 4
	}
	if out.RelaxTicks <= 0 {
		out.RelaxTicks = 8
	}
	return out
}

// Controller is a PID-free queue-delay controller in the CoDel mold:
// instead of reacting to instantaneous queue length it watches the
// sojourn time (worst served-frame latency per tick) against a target
// and only acts when the excess *persists* — one slow tick is noise,
// EscalateTicks consecutive slow ticks are standing congestion. The
// output is a shed-ladder rung, monotone in both directions one step
// at a time so the degradation the fleet sees is gradual and
// reversible.
//
// The controller is driven from the single-threaded tick barrier of
// the event loop and needs no internal locking. A nil *Controller is
// inert: Rung is always ShedNone.
type Controller struct {
	cfg   ControllerConfig
	rung  Rung
	above int // consecutive congested ticks
	below int // consecutive uncongested ticks
}

// NewController builds a Controller; returns nil (inert) when
// cfg.Target <= 0.
func NewController(cfg ControllerConfig) *Controller {
	if cfg.Target <= 0 {
		return nil
	}
	return &Controller{cfg: cfg.withDefaults()}
}

// Rung returns the ladder rung to apply to the next tick. Nil-safe.
func (c *Controller) Rung() Rung {
	if c == nil {
		return ShedNone
	}
	return c.rung
}

// ObserveTick folds one tick's worst served-frame sojourn into the
// controller and returns the rung for the next tick. served reports
// whether any frame actually completed this tick: ticks with no
// served sample (everything dropped or quarantined) count as
// congested — the absence of evidence that latency recovered must not
// relax the ladder, or a fully-dropping fleet would flap between
// ShedDrop and serving. Nil-safe.
func (c *Controller) ObserveTick(worst time.Duration, served bool) Rung {
	if c == nil {
		return ShedNone
	}
	congested := !served || worst > c.cfg.Target
	if congested {
		c.above++
		c.below = 0
		if c.above >= c.cfg.EscalateTicks {
			c.above = 0
			if c.rung < ShedDrop {
				c.rung++
			}
		}
	} else {
		c.below++
		c.above = 0
		if c.below >= c.cfg.RelaxTicks {
			c.below = 0
			if c.rung > ShedNone {
				c.rung--
			}
		}
	}
	return c.rung
}

// Sojourn returns worst/target as a unitless ratio for the Monitor's
// Sample (0 when inert or target unset).
func (c *Controller) Sojourn(worst time.Duration) float64 {
	if c == nil || c.cfg.Target <= 0 {
		return 0
	}
	return float64(worst) / float64(c.cfg.Target)
}
