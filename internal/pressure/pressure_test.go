package pressure

import (
	"testing"
	"time"
)

func TestMonitorEscalatesImmediately(t *testing.T) {
	m := NewMonitor(MonitorConfig{})
	var seen []Level
	m.Subscribe(func(lv Level) { seen = append(seen, lv) })
	if m.Level() != Nominal {
		t.Fatalf("fresh monitor at %v", m.Level())
	}
	m.Update(Sample{Heat: 1.2}) // past the Elevated heat threshold
	if m.Level() != Elevated {
		t.Fatalf("heat 1.2 left level at %v", m.Level())
	}
	m.Update(Sample{Heat: 1.9}) // past Critical
	if m.Level() != Critical {
		t.Fatalf("heat 1.9 left level at %v", m.Level())
	}
	if len(seen) != 2 || seen[0] != Elevated || seen[1] != Critical {
		t.Fatalf("subscriber saw %v", seen)
	}
}

func TestMonitorDeescalatesWithHysteresis(t *testing.T) {
	m := NewMonitor(MonitorConfig{HoldTicks: 3})
	m.Update(Sample{Heat: 1.9})
	if m.Level() != Critical {
		t.Fatalf("setup: %v", m.Level())
	}
	// Calm observations must persist for HoldTicks before one step down.
	for i := 0; i < 2; i++ {
		m.Update(Sample{})
		if m.Level() != Critical {
			t.Fatalf("dropped after %d calm ticks (< HoldTicks)", i+1)
		}
	}
	m.Update(Sample{})
	if m.Level() != Elevated {
		t.Fatalf("after HoldTicks calm ticks: %v, want one step down", m.Level())
	}
	// A single hot observation resets the calm streak.
	m.Update(Sample{})
	m.Update(Sample{Heat: 1.2})
	m.Update(Sample{})
	m.Update(Sample{})
	if m.Level() != Elevated {
		t.Fatalf("streak not reset by a hot tick: %v", m.Level())
	}
}

func TestMonitorFoldsAllSignals(t *testing.T) {
	m := NewMonitor(MonitorConfig{})
	m.Update(Sample{Residency: 0.9})
	if m.Level() != Elevated {
		t.Fatalf("residency 0.9: %v", m.Level())
	}
	m2 := NewMonitor(MonitorConfig{})
	m2.Update(Sample{Sojourn: 5})
	if m2.Level() != Critical {
		t.Fatalf("sojourn 5x: %v", m2.Level())
	}
}

func TestNilMonitorIsNominal(t *testing.T) {
	var m *Monitor
	if m.Level() != Nominal {
		t.Fatal("nil monitor not Nominal")
	}
	// The note funnel and the counters must be nil-safe.
	m.NoteSweep(3)
	m.Counters().ShedDropped.Inc()
	m.Counters().QuarantinedFrames.Child().Inc()
}

func TestControllerEscalatesAndRelaxesOneRungAtATime(t *testing.T) {
	c := NewController(ControllerConfig{Target: time.Millisecond, EscalateTicks: 2, RelaxTicks: 2})
	if c.Rung() != ShedNone {
		t.Fatalf("fresh controller at %v", c.Rung())
	}
	over, under := 2*time.Millisecond, time.Millisecond/2
	c.ObserveTick(over, true)
	if c.Rung() != ShedNone {
		t.Fatal("escalated after one congested tick (< EscalateTicks)")
	}
	c.ObserveTick(over, true)
	if c.Rung() != ShedPrefetch {
		t.Fatalf("after EscalateTicks congested: %v", c.Rung())
	}
	// Escalation persistence restarts per rung.
	c.ObserveTick(over, true)
	c.ObserveTick(over, true)
	c.ObserveTick(over, true)
	c.ObserveTick(over, true)
	if c.Rung() != ShedDrop {
		t.Fatalf("sustained congestion: %v, want ShedDrop", c.Rung())
	}
	// And never past the top.
	c.ObserveTick(over, true)
	c.ObserveTick(over, true)
	if c.Rung() != ShedDrop {
		t.Fatalf("escalated past the top: %v", c.Rung())
	}
	// Relax one rung per RelaxTicks uncongested ticks.
	c.ObserveTick(under, true)
	if c.Rung() != ShedDrop {
		t.Fatal("relaxed after one calm tick")
	}
	c.ObserveTick(under, true)
	if c.Rung() != ShedDowngrade {
		t.Fatalf("after RelaxTicks calm: %v", c.Rung())
	}
	for i := 0; i < 4; i++ {
		c.ObserveTick(under, true)
	}
	if c.Rung() != ShedNone {
		t.Fatalf("sustained calm: %v, want ShedNone", c.Rung())
	}
}

func TestControllerCountsServedlessTicksCongested(t *testing.T) {
	c := NewController(ControllerConfig{Target: time.Millisecond, EscalateTicks: 2})
	// No served frame at all is the worst congestion signal there is.
	c.ObserveTick(0, false)
	c.ObserveTick(0, false)
	if c.Rung() != ShedPrefetch {
		t.Fatalf("served-less ticks not congested: %v", c.Rung())
	}
}

func TestNilControllerStaysAtShedNone(t *testing.T) {
	var c *Controller
	if c.Rung() != ShedNone {
		t.Fatal("nil controller off ShedNone")
	}
	if got := c.ObserveTick(time.Hour, false); got != ShedNone {
		t.Fatalf("nil controller observed %v", got)
	}
	if c.Sojourn(time.Hour) != 0 {
		t.Fatal("nil controller nonzero sojourn")
	}
	if NewController(ControllerConfig{}) != nil {
		t.Fatal("controller without a target must be nil")
	}
}

func TestWatchdogQuarantinesStalledStreams(t *testing.T) {
	w := NewWatchdog(3, WatchdogConfig{StallTicks: 2, QuarantineTicks: 3}, nil)
	active := []bool{true, true, true}
	progress := []bool{true, false, true}
	if newly := w.ObserveTick(active, progress); len(newly) != 0 {
		t.Fatalf("quarantined %v after one stalled tick", newly)
	}
	newly := w.ObserveTick(active, progress)
	if len(newly) != 1 || newly[0] != 1 {
		t.Fatalf("after StallTicks stalls: %v, want [1]", newly)
	}
	if !w.Quarantined(1) || w.Quarantined(0) || w.Quarantined(2) {
		t.Fatal("wrong streams quarantined")
	}
	// Quarantine expires after QuarantineTicks, releasing a probe.
	idle := []bool{false, false, false}
	for i := 0; i < 3; i++ {
		if !w.Quarantined(1) {
			t.Fatalf("released after %d of 3 ticks", i)
		}
		w.ObserveTick(idle, idle)
	}
	if w.Quarantined(1) {
		t.Fatal("quarantine never expired")
	}
	if w.Quarantines() != 1 {
		t.Fatalf("quarantines %d, want 1", w.Quarantines())
	}
}

func TestWatchdogForcedQuarantine(t *testing.T) {
	w := NewWatchdog(2, WatchdogConfig{}, nil)
	if !w.Quarantine(0) {
		t.Fatal("forced quarantine of a live stream reported false")
	}
	if w.Quarantine(0) {
		t.Fatal("re-quarantine of a quarantined stream reported true")
	}
	if !w.Quarantined(0) {
		t.Fatal("stream not quarantined")
	}
	// Progress clears the stall clock for live streams.
	if w.Quarantined(1) {
		t.Fatal("stream 1 was never quarantined")
	}
}

func TestNilWatchdog(t *testing.T) {
	var w *Watchdog
	if w.Quarantined(0) {
		t.Fatal("nil watchdog quarantined something")
	}
	if w.Quarantine(0) {
		t.Fatal("nil watchdog accepted a quarantine")
	}
	if got := w.ObserveTick(nil, nil); got != nil {
		t.Fatalf("nil watchdog observed %v", got)
	}
	if w.Quarantines() != 0 {
		t.Fatal("nil watchdog counted quarantines")
	}
}
