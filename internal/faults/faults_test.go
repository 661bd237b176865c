package faults

import (
	"testing"
	"time"

	"anole/internal/netsim"
	"anole/internal/xrand"
)

// stubMedium is a Medium pinned to one state with a fixed transfer cost,
// so link-wrapper tests see only the injector's behavior.
type stubMedium struct {
	state netsim.LinkState
	cost  time.Duration
}

func (m *stubMedium) State() netsim.LinkState { return m.state }
func (m *stubMedium) Step() netsim.LinkState  { return m.state }
func (m *stubMedium) Transfer(up, down int64) (time.Duration, bool) {
	if m.state == netsim.Down {
		return 0, false
	}
	return m.cost, true
}

func newChainLink(t *testing.T, seed uint64) *netsim.Link {
	t.Helper()
	link, err := netsim.NewLink(netsim.DefaultConfig(0.5), xrand.NewLabeled(seed, "faults-test-link"))
	if err != nil {
		t.Fatal(err)
	}
	return link
}

func TestLinkDeterministicReplay(t *testing.T) {
	cfg := Config{Seed: 42, OutageRate: 0.15, CorruptRate: 0.1}
	run := func() ([]netsim.LinkState, []bool, Stats) {
		l := WrapLink(newChainLink(t, 7), cfg)
		states := make([]netsim.LinkState, 0, 500)
		corrupt := make([]bool, 0, 500)
		for i := 0; i < 500; i++ {
			states = append(states, l.Step())
			corrupt = append(corrupt, l.CorruptTransfer())
		}
		return states, corrupt, l.Stats()
	}
	s1, c1, st1 := run()
	s2, c2, st2 := run()
	for i := range s1 {
		if s1[i] != s2[i] || c1[i] != c2[i] {
			t.Fatalf("replay diverged at step %d: state %v vs %v, corrupt %v vs %v",
				i, s1[i], s2[i], c1[i], c2[i])
		}
	}
	if st1 != st2 {
		t.Fatalf("replay stats diverged: %+v vs %+v", st1, st2)
	}
	if st1.Outages == 0 || st1.Corrupted == 0 {
		t.Fatalf("chaos never bit: %+v", st1)
	}
}

func TestLinkGraceStepsProtectColdStart(t *testing.T) {
	const grace = 10
	l := WrapLink(&stubMedium{state: netsim.Good, cost: time.Millisecond}, Config{
		Seed:       1,
		GraceSteps: grace,
		// Certain faults: any unprotected step would show them.
		OutageRate:  1,
		CorruptRate: 1,
	})
	for i := 0; i < grace; i++ {
		if got := l.Step(); got != netsim.Good {
			t.Fatalf("step %d inside grace window: state %v, want good", i+1, got)
		}
		if l.CorruptTransfer() {
			t.Fatalf("step %d inside grace window: corrupted transfer", i+1)
		}
	}
	if got := l.Step(); got != netsim.Down {
		t.Fatalf("first post-grace step: state %v, want down (outage rate 1)", got)
	}
}

func TestLinkForcedOutageMasksGoodWeather(t *testing.T) {
	l := WrapLink(&stubMedium{state: netsim.Good, cost: time.Millisecond}, Config{Seed: 3})
	if _, ok := l.Transfer(10, 10); !ok {
		t.Fatal("healthy wrapped link refused a transfer")
	}
	l.ForceOutage(3)
	for i := 0; i < 3; i++ {
		if l.State() != netsim.Down {
			t.Fatalf("forced step %d: state %v, want down", i, l.State())
		}
		if _, ok := l.Transfer(10, 10); ok {
			t.Fatalf("forced step %d: transfer succeeded during outage", i)
		}
		l.Step()
	}
	if l.State() != netsim.Down {
		// The third Step consumed the last forced step; State reflects the
		// inner link again only after the burst is fully consumed.
		t.Logf("state after burst: %v", l.State())
	}
	if got := l.Step(); got != netsim.Good {
		t.Fatalf("post-outage step: state %v, want good", got)
	}
	if _, ok := l.Transfer(10, 10); !ok {
		t.Fatal("post-outage transfer failed")
	}
	st := l.Stats()
	if st.Outages != 1 {
		t.Fatalf("Outages = %d, want 1", st.Outages)
	}
}

func TestLinkOutageBurstsHaveGeometricTail(t *testing.T) {
	l := WrapLink(&stubMedium{state: netsim.Good, cost: time.Millisecond}, Config{
		Seed:            9,
		OutageRate:      0.1,
		OutageMeanSteps: 4,
	})
	for i := 0; i < 5000; i++ {
		l.Step()
	}
	st := l.Stats()
	if st.Outages < 100 {
		t.Fatalf("Outages = %d over 5000 steps at rate 0.1, want >= 100", st.Outages)
	}
	mean := float64(st.OutageSteps) / float64(st.Outages)
	if mean < 2 || mean > 7 {
		t.Fatalf("mean burst length %.2f, want near 4", mean)
	}
}
