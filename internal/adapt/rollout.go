package adapt

import "fmt"

// RolloutState is where a candidate generation stands in its rollout.
type RolloutState uint8

const (
	// RolloutIdle: no candidate in flight.
	RolloutIdle RolloutState = iota
	// RolloutCanary: the candidate serves the canary stream; the fleet
	// stays on the incumbent while telemetry accumulates.
	RolloutCanary
	// RolloutPromoted: the candidate passed and the whole fleet runs it.
	RolloutPromoted
	// RolloutRolledBack: the candidate failed and the canary stream was
	// restored to the incumbent.
	RolloutRolledBack
)

func (s RolloutState) String() string {
	switch s {
	case RolloutIdle:
		return "idle"
	case RolloutCanary:
		return "canary"
	case RolloutPromoted:
		return "promoted"
	case RolloutRolledBack:
		return "rolled_back"
	default:
		return fmt.Sprintf("state(%d)", uint8(s))
	}
}

// RolloutConfig sets the canary's scope and verdict thresholds.
type RolloutConfig struct {
	// CanaryStream is the stream index that serves the candidate first
	// (default 0).
	CanaryStream int
	// CanaryFrames is how many canary-stream frames must accumulate
	// before a verdict (default 60).
	CanaryFrames int
	// MinF1Ratio: the canary's F1 proxy must be at least this fraction
	// of the incumbent fleet's over the same period (default 0.9 — the
	// candidate serves a scene the incumbent cannot, so modest slack on
	// shared scenes is tolerated, but a broken model shows up far below).
	MinF1Ratio float64
	// MaxBreakerOpens: circuit-breaker opens attributable to the canary
	// stream during the window before automatic rollback (default 0 —
	// any open is disqualifying).
	MaxBreakerOpens int64
}

// maxDegradedDelta is how much the canary's degraded-frame rate may
// exceed the incumbent's before the canary fails.
const maxDegradedDelta = 0.1

func (c *RolloutConfig) fill() {
	if c.CanaryStream < 0 {
		c.CanaryStream = 0
	}
	if c.CanaryFrames <= 0 {
		c.CanaryFrames = 60
	}
	if c.MinF1Ratio <= 0 {
		c.MinF1Ratio = 0.9
	}
	if c.MaxBreakerOpens < 0 {
		c.MaxBreakerOpens = 0
	}
}

// RolloutWindow aggregates the telemetry a verdict compares: the canary
// stream's numbers against the incumbent fleet's, over the same frames.
type RolloutWindow struct {
	// CanaryFrames / IncumbentFrames: frames processed on each side.
	CanaryFrames    int64
	IncumbentFrames int64
	// F1 proxies (e.g. mean per-frame cell F1 against ground truth).
	CanaryF1    float64
	IncumbentF1 float64
	// Degraded-frame counts (frames served by a worse-than-desired model
	// or hit by faults).
	CanaryDegraded    int64
	IncumbentDegraded int64
	// BreakerOpens attributable to the canary stream in the window.
	BreakerOpens int64
}

// Verdict is a rollout decision with its reason.
type Verdict struct {
	Promote bool
	Reason  string
}

// Rollout is the canary state machine for one candidate generation. It
// is pure bookkeeping — the Loop owns the side effects (bundle swaps,
// cache purges) — which keeps every transition table-testable. Not safe
// for concurrent use.
type Rollout struct {
	cfg   RolloutConfig
	state RolloutState
	// candidate is the generation under canary.
	candidate uint64
	window    RolloutWindow
	verdict   Verdict
}

// NewRollout returns an idle rollout machine.
func NewRollout(cfg RolloutConfig) *Rollout {
	cfg.fill()
	return &Rollout{cfg: cfg, state: RolloutIdle}
}

// State exposes the machine's position.
func (r *Rollout) State() RolloutState { return r.state }

// LastVerdict returns the decision that ended the most recent canary.
func (r *Rollout) LastVerdict() Verdict { return r.verdict }

// Begin starts a canary of candidate against incumbent. Only legal from
// Idle, Promoted, or RolledBack (a finished machine restarts cleanly).
func (r *Rollout) Begin(candidate, incumbent uint64) error {
	if r.state == RolloutCanary {
		return fmt.Errorf("adapt: canary of generation %d already active", r.candidate)
	}
	if candidate == incumbent {
		return fmt.Errorf("adapt: candidate generation %d equals incumbent", candidate)
	}
	r.state = RolloutCanary
	r.candidate = candidate
	r.window = RolloutWindow{}
	r.verdict = Verdict{}
	return nil
}

// Accumulate folds a batch of frames into the window: frames processed,
// their F1-proxy sum, and how many were degraded. The Loop folds
// per-stream sums in stream order between chunks, so the window is
// identical whatever order worker goroutines finished in.
func (r *Rollout) Accumulate(canary bool, frames int64, sumF1 float64, degraded int64) {
	if r.state != RolloutCanary || frames <= 0 {
		return
	}
	if canary {
		n := r.window.CanaryFrames
		r.window.CanaryF1 = (float64(r.window.CanaryF1*float64(n)) + sumF1) / float64(n+frames)
		r.window.CanaryFrames += frames
		r.window.CanaryDegraded += degraded
	} else {
		n := r.window.IncumbentFrames
		r.window.IncumbentF1 = (float64(r.window.IncumbentF1*float64(n)) + sumF1) / float64(n+frames)
		r.window.IncumbentFrames += frames
		r.window.IncumbentDegraded += degraded
	}
}

// ObserveBreakerOpens adds circuit-breaker opens attributed to the
// canary stream.
func (r *Rollout) ObserveBreakerOpens(n int64) {
	if r.state == RolloutCanary && n > 0 {
		r.window.BreakerOpens += n
	}
}

// Window returns a copy of the accumulated telemetry.
func (r *Rollout) Window() RolloutWindow { return r.window }

// Ready reports whether the canary window has accumulated enough frames
// for a verdict.
func (r *Rollout) Ready() bool {
	return r.state == RolloutCanary && r.window.CanaryFrames >= int64(r.cfg.CanaryFrames)
}

// Decide closes the canary window and moves the machine to Promoted or
// RolledBack, returning the verdict. Calling it before Ready forces an
// early verdict on whatever accumulated (the Loop does this on outage-
// triggered aborts); calling it outside Canary is an error.
func (r *Rollout) Decide() (Verdict, error) {
	if r.state != RolloutCanary {
		return Verdict{}, fmt.Errorf("adapt: no canary to decide (state %v)", r.state)
	}
	v := r.evaluate()
	r.verdict = v
	if v.Promote {
		r.state = RolloutPromoted
	} else {
		r.state = RolloutRolledBack
	}
	return v, nil
}

// evaluate applies the verdict rules, most disqualifying first.
func (r *Rollout) evaluate() Verdict {
	w := r.window
	if w.CanaryFrames == 0 {
		return Verdict{Promote: false, Reason: "no canary frames observed"}
	}
	if w.BreakerOpens > r.cfg.MaxBreakerOpens {
		return Verdict{Promote: false, Reason: fmt.Sprintf(
			"breaker opened %d times on canary stream (max %d)", w.BreakerOpens, r.cfg.MaxBreakerOpens)}
	}
	canaryDegRate := float64(w.CanaryDegraded) / float64(w.CanaryFrames)
	incDegRate := 0.0
	if w.IncumbentFrames > 0 {
		incDegRate = float64(w.IncumbentDegraded) / float64(w.IncumbentFrames)
	}
	if canaryDegRate > incDegRate+maxDegradedDelta {
		return Verdict{Promote: false, Reason: fmt.Sprintf(
			"canary degraded rate %.3f exceeds incumbent %.3f by more than %.3f",
			canaryDegRate, incDegRate, maxDegradedDelta)}
	}
	if w.IncumbentFrames > 0 && w.CanaryF1 < r.cfg.MinF1Ratio*w.IncumbentF1 {
		return Verdict{Promote: false, Reason: fmt.Sprintf(
			"canary F1 %.4f below %.2f of incumbent %.4f",
			w.CanaryF1, r.cfg.MinF1Ratio, w.IncumbentF1)}
	}
	return Verdict{Promote: true, Reason: fmt.Sprintf(
		"canary F1 %.4f vs incumbent %.4f, degraded %.3f vs %.3f, no breaker opens over budget",
		w.CanaryF1, w.IncumbentF1, canaryDegRate, incDegRate)}
}
