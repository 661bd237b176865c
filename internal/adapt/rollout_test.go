package adapt

import (
	"math"
	"strings"
	"testing"
)

func TestRolloutLifecycle(t *testing.T) {
	r := NewRollout(RolloutConfig{CanaryFrames: 10})
	if r.State() != RolloutIdle {
		t.Fatalf("fresh machine state %v", r.State())
	}
	if _, err := r.Decide(); err == nil {
		t.Fatal("Decide outside a canary must fail")
	}
	if err := r.Begin(2, 2); err == nil {
		t.Fatal("candidate == incumbent must fail")
	}
	if err := r.Begin(2, 1); err != nil {
		t.Fatal(err)
	}
	if r.State() != RolloutCanary {
		t.Fatalf("canary state %v", r.State())
	}
	if err := r.Begin(3, 1); err == nil || !strings.Contains(err.Error(), "generation 2 already active") {
		t.Fatalf("nested Begin must fail naming the active candidate 2, got %v", err)
	}
	if r.Ready() {
		t.Fatal("ready with zero frames")
	}
	r.Accumulate(true, 10, 8.0, 0)
	r.Accumulate(false, 20, 16.0, 0)
	if !r.Ready() {
		t.Fatal("not ready after CanaryFrames frames")
	}
	v, err := r.Decide()
	if err != nil || !v.Promote {
		t.Fatalf("equal-quality canary should promote: %+v err %v", v, err)
	}
	if r.State() != RolloutPromoted {
		t.Fatalf("state %v after promote", r.State())
	}
	// A finished machine restarts cleanly.
	if err := r.Begin(3, 2); err != nil {
		t.Fatal(err)
	}
	if r.State() != RolloutCanary {
		t.Fatalf("restarted canary state %v", r.State())
	}
	if err := r.Begin(4, 2); err == nil || !strings.Contains(err.Error(), "generation 3 already active") {
		t.Fatalf("Begin during the restarted canary must fail naming candidate 3, got %v", err)
	}
}

func TestRolloutVerdictRules(t *testing.T) {
	cases := []struct {
		name    string
		window  RolloutWindow
		cfg     RolloutConfig
		promote bool
		reason  string
	}{
		{
			name:    "no frames",
			window:  RolloutWindow{},
			promote: false,
			reason:  "no canary frames",
		},
		{
			name: "breaker opens disqualify",
			window: RolloutWindow{CanaryFrames: 100, CanaryF1: 0.9,
				IncumbentFrames: 100, IncumbentF1: 0.5, BreakerOpens: 1},
			promote: false,
			reason:  "breaker",
		},
		{
			name: "degraded delta disqualifies",
			window: RolloutWindow{CanaryFrames: 100, CanaryF1: 0.9, CanaryDegraded: 30,
				IncumbentFrames: 100, IncumbentF1: 0.5, IncumbentDegraded: 5},
			promote: false,
			reason:  "degraded",
		},
		{
			name: "f1 collapse disqualifies",
			window: RolloutWindow{CanaryFrames: 100, CanaryF1: 0.3,
				IncumbentFrames: 100, IncumbentF1: 0.8},
			promote: false,
			reason:  "F1",
		},
		{
			name: "modest f1 slack tolerated",
			window: RolloutWindow{CanaryFrames: 100, CanaryF1: 0.75,
				IncumbentFrames: 100, IncumbentF1: 0.8},
			promote: true,
		},
		{
			name: "no incumbent frames promotes on canary alone",
			window: RolloutWindow{CanaryFrames: 100, CanaryF1: 0.2,
				CanaryDegraded: 5},
			promote: true,
		},
		{
			name: "tight breaker budget honored",
			window: RolloutWindow{CanaryFrames: 100, CanaryF1: 0.9,
				IncumbentFrames: 100, IncumbentF1: 0.5, BreakerOpens: 2},
			cfg:     RolloutConfig{MaxBreakerOpens: 2},
			promote: true,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := NewRollout(tc.cfg)
			if err := r.Begin(2, 1); err != nil {
				t.Fatal(err)
			}
			r.window = tc.window
			v, err := r.Decide()
			if err != nil {
				t.Fatal(err)
			}
			if v.Promote != tc.promote {
				t.Fatalf("promote = %v, want %v (%s)", v.Promote, tc.promote, v.Reason)
			}
			if tc.reason != "" && !strings.Contains(v.Reason, tc.reason) {
				t.Fatalf("reason %q missing %q", v.Reason, tc.reason)
			}
		})
	}
}

// Accumulate must be permutation-stable across batch boundaries: the
// final means depend only on the totals, not on how frames were grouped
// into chunks.
func TestRolloutAccumulateGrouping(t *testing.T) {
	mk := func() *Rollout {
		r := NewRollout(RolloutConfig{})
		if err := r.Begin(2, 1); err != nil {
			t.Fatal(err)
		}
		return r
	}
	a := mk()
	a.Accumulate(true, 4, 2.0, 1)
	a.Accumulate(true, 6, 4.5, 2)
	b := mk()
	b.Accumulate(true, 10, 6.5, 3)
	wa, wb := a.Window(), b.Window()
	if wa.CanaryFrames != wb.CanaryFrames || wa.CanaryDegraded != wb.CanaryDegraded {
		t.Fatalf("counts diverge: %+v vs %+v", wa, wb)
	}
	if math.Abs(wa.CanaryF1-wb.CanaryF1) > 1e-12 {
		t.Fatalf("means diverge: %v vs %v", wa.CanaryF1, wb.CanaryF1)
	}
	// Observing into the wrong state is inert.
	r := NewRollout(RolloutConfig{})
	r.Accumulate(true, 5, 5, 5)
	r.ObserveBreakerOpens(3)
	if w := r.Window(); w.CanaryFrames != 0 || w.BreakerOpens != 0 {
		t.Fatalf("idle machine accumulated: %+v", w)
	}
}

func TestRolloutStateStrings(t *testing.T) {
	for st, want := range map[RolloutState]string{
		RolloutIdle: "idle", RolloutCanary: "canary",
		RolloutPromoted: "promoted", RolloutRolledBack: "rolled_back",
		RolloutState(9): "state(9)",
	} {
		if got := st.String(); got != want {
			t.Fatalf("%d.String() = %q, want %q", st, got, want)
		}
	}
}
