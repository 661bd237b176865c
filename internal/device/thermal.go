package device

import "time"

// ThermalModel is an optional first-order thermal throttling model for a
// simulated device: the heat state rises toward the ratio of drawn power
// to the chassis' sustainable dissipation with a single RC time constant,
// and compute throughput derates once the state exceeds 1 (the thermal
// envelope). Passively cooled Jetson modules exhibit exactly this
// behavior under sustained load.
type ThermalModel struct {
	// SustainedW is the power the chassis can dissipate indefinitely.
	SustainedW float64
	// TimeConstant is the thermal RC constant (how quickly heat
	// follows power).
	TimeConstant time.Duration
	// MaxDerate is the maximum fractional throughput loss when fully
	// saturated (e.g. 0.4 = down to 60% of nominal GFLOPS).
	MaxDerate float64
}

// DefaultThermal returns a model resembling a passively cooled Jetson:
// ~7 W sustainable, a one-minute time constant, and up to 40% derating.
func DefaultThermal() *ThermalModel {
	return &ThermalModel{SustainedW: 7, TimeConstant: 60 * time.Second, MaxDerate: 0.4}
}

// EnableThermal attaches a thermal model to the simulator. Pass nil to
// disable (the default: experiments that do not study throttling stay
// unaffected).
func (s *Simulator) EnableThermal(m *ThermalModel) {
	s.thermal = m
	s.heat = 0
}

// Heat returns the current thermal state: <1 inside the envelope, >1
// throttling. Zero without a thermal model or before any activity.
func (s *Simulator) Heat() float64 { return s.heat }

// ThrottleFactor returns the current compute-throughput multiplier in
// (0, 1]; 1 when cool or when no thermal model is attached.
func (s *Simulator) ThrottleFactor() float64 {
	if s.thermal == nil || s.heat <= 1 {
		return 1
	}
	over := s.heat - 1
	if over > 1 {
		over = 1
	}
	return 1 - float64(s.thermal.MaxDerate*over)
}

// advanceThermal evolves the heat state over duration d at power p.
func (s *Simulator) advanceThermal(d time.Duration, p float64) {
	if s.thermal == nil || d <= 0 {
		return
	}
	target := p / s.thermal.SustainedW
	alpha := float64(d) / float64(s.thermal.TimeConstant)
	if alpha > 1 {
		alpha = 1
	}
	s.heat += float64((target - s.heat) * alpha)
	if s.heat < 0 {
		s.heat = 0
	}
	// The state may exceed 2 transiently under extreme power; clamp so
	// ThrottleFactor's envelope math stays meaningful.
	if s.heat > 2 {
		s.heat = 2
	}
}
