// Package device simulates the paper's three mobile platforms — Jetson
// Nano, Jetson TX2 NX and a laptop (Table I) — so that the latency, GPU
// memory and power experiments (Table IV, Fig. 4a, Fig. 11) run without
// the hardware.
//
// The simulator charges each inference latency = FLOPs/throughput +
// dispatch overhead, charges cold model loads bytes/IO-bandwidth plus a
// one-time framework-initialization cost (the paper's Fig. 4a first-frame
// spike), integrates energy as power × busy-time, and accounts GPU memory
// as loaded weights plus an execution working set.
//
// Because the substitute models are far smaller than YOLOv3 (DESIGN.md
// §2), model FLOPs and bytes are multiplied by FLOPsScale/BytesScale to
// land in the paper's workload regime; the scale factors are two
// documented calibration constants, not per-experiment tuning.
//
// Every float product that feeds a sum is written float64(x*y) + z: the
// conversion rounds the product, so no platform fuses a multiply-add,
// and arm64 charges the same latencies, energy and memory, bit for bit,
// as amd64 (CI's arm64 objdump check covers this package and core,
// which inlines it).
package device

import (
	"fmt"
	"time"
)

// FLOPsScale and BytesScale map substitute-model cost to paper-scale
// cost. The compressed detector head here runs ≈0.05 MFLOPs/frame with
// ≈3 KB of weights versus YOLOv3-tiny's 5.56 BFLOPs and 34 MB, so the
// two dimensions need different factors: with these values the tiny
// analogue lands at ≈5.8 BFLOPs / 31 MB and the deep analogue at
// ≈61 BFLOPs / 320 MB — the paper's Table II regime. The same factors
// apply to every model and device, so all ratios are preserved.
const (
	FLOPsScale = 1.2e5
	BytesScale = 1.0e4
)

// PowerMode is one operating point of a device (the TX2 NX exposes
// several; Fig. 11 sweeps them).
type PowerMode struct {
	Name string
	// BudgetW is the nominal input power of the mode.
	BudgetW float64
	// Cores is the number of active CPU cores.
	Cores int
	// GFLOPS is the effective compute throughput at this mode.
	GFLOPS float64
	// IdleW and ActiveW bound the power draw: idle when waiting,
	// active while computing.
	IdleW, ActiveW float64
}

// Profile describes one device (Table I).
type Profile struct {
	Name string
	// GPUMemoryMB bounds what the model cache may hold.
	GPUMemoryMB float64
	// IOBandwidthMBps is the flash→GPU transfer rate for model loads.
	IOBandwidthMBps float64
	// FrameworkInitMs is the one-time inference-engine initialization
	// charged on the very first model load (the dominant part of the
	// Fig. 4a first-frame spike).
	FrameworkInitMs float64
	// DispatchOverheadMs is the fixed per-inference cost (kernel
	// launch, pre/post-processing).
	DispatchOverheadMs float64
	// Modes lists the available power modes; Modes[DefaultMode] is
	// used unless a mode is selected explicitly.
	Modes       []PowerMode
	DefaultMode int
	// BatteryWh is the device's energy envelope in watt-hours. Zero
	// means wall-powered (unbounded); fleet planning treats a positive
	// value as the budget a deployment must live within.
	BatteryWh float64
}

// Validate checks that a profile is internally consistent: at least one
// power mode, a default mode in range, positive memory/bandwidth, and
// sane wattage on every mode. NewSimulator and NewSimulatorAtMode refuse
// profiles that fail validation instead of dividing by zero later.
func (p Profile) Validate() error {
	if len(p.Modes) == 0 {
		return fmt.Errorf("device: profile %q has no power modes", p.Name)
	}
	if p.DefaultMode < 0 || p.DefaultMode >= len(p.Modes) {
		return fmt.Errorf("device: profile %q default mode %d out of range [0,%d)",
			p.Name, p.DefaultMode, len(p.Modes))
	}
	if p.GPUMemoryMB <= 0 {
		return fmt.Errorf("device: profile %q has non-positive GPU memory %v", p.Name, p.GPUMemoryMB)
	}
	if p.IOBandwidthMBps <= 0 {
		return fmt.Errorf("device: profile %q has non-positive IO bandwidth %v", p.Name, p.IOBandwidthMBps)
	}
	if p.FrameworkInitMs < 0 || p.DispatchOverheadMs < 0 {
		return fmt.Errorf("device: profile %q has negative overhead", p.Name)
	}
	if p.BatteryWh < 0 {
		return fmt.Errorf("device: profile %q has negative battery envelope %v", p.Name, p.BatteryWh)
	}
	for i, m := range p.Modes {
		if m.GFLOPS <= 0 {
			return fmt.Errorf("device: profile %q mode %d (%s) has non-positive throughput %v",
				p.Name, i, m.Name, m.GFLOPS)
		}
		if m.BudgetW <= 0 {
			return fmt.Errorf("device: profile %q mode %d (%s) has non-positive power budget %v",
				p.Name, i, m.Name, m.BudgetW)
		}
		if m.IdleW < 0 || m.ActiveW < m.IdleW {
			return fmt.Errorf("device: profile %q mode %d (%s) has inconsistent wattage idle=%v active=%v",
				p.Name, i, m.Name, m.IdleW, m.ActiveW)
		}
	}
	return nil
}

// The three platforms of Table I. Throughput, bandwidth and power figures
// are set so that the Table IV / Fig. 11 shapes reproduce: TX2 NX fastest,
// Nano slowest, laptop in between but with the most memory.
var (
	JetsonNano = Profile{
		Name:               "Jetson Nano",
		GPUMemoryMB:        2048,
		IOBandwidthMBps:    180,
		FrameworkInitMs:    900,
		DispatchOverheadMs: 2.5,
		Modes: []PowerMode{
			{Name: "10W", BudgetW: 10, Cores: 4, GFLOPS: 236, IdleW: 1.5, ActiveW: 9.0},
		},
		BatteryWh: 37, // 3S LiPo pack typical of Nano robotics carriers
	}
	JetsonTX2NX = Profile{
		Name:               "Jetson TX2 NX",
		GPUMemoryMB:        4096,
		IOBandwidthMBps:    400,
		FrameworkInitMs:    600,
		DispatchOverheadMs: 0.8,
		Modes: []PowerMode{
			{Name: "7.5W-2core", BudgetW: 7.5, Cores: 2, GFLOPS: 630, IdleW: 1.8, ActiveW: 7.0},
			{Name: "10W-4core", BudgetW: 10, Cores: 4, GFLOPS: 830, IdleW: 2.0, ActiveW: 9.3},
			{Name: "15W-4core", BudgetW: 15, Cores: 4, GFLOPS: 1060, IdleW: 2.2, ActiveW: 13.5},
			{Name: "20W-6core", BudgetW: 20, Cores: 6, GFLOPS: 1330, IdleW: 2.5, ActiveW: 17.8},
		},
		DefaultMode: 3,
		BatteryWh:   58, // 4S pack on the TX2 NX dev carrier
	}
	Laptop = Profile{
		Name:               "Laptop (i7 + RTX 2070)",
		GPUMemoryMB:        8192,
		IOBandwidthMBps:    1500,
		FrameworkInitMs:    400,
		DispatchOverheadMs: 18, // desktop stacks pay far more per-call overhead
		Modes: []PowerMode{
			{Name: "AC", BudgetW: 180, Cores: 12, GFLOPS: 2100, IdleW: 25, ActiveW: 140},
		},
		BatteryWh: 99, // largest airline-legal pack
	}

	// CPUFast and CPUSlow are CPU-only analogs bracketing the phone SoCs
	// a real deployment sees (OODIn's heterogeneity argument): a flagship
	// big-core cluster and a budget handset. CPUSlow's small memory
	// ceiling is deliberate — it is the profile on which per-device
	// planning's memory constraint actually binds.
	CPUFast = Profile{
		Name:               "CPU (fast)",
		GPUMemoryMB:        3072,
		IOBandwidthMBps:    250,
		FrameworkInitMs:    350,
		DispatchOverheadMs: 1.2,
		Modes: []PowerMode{
			{Name: "sustained", BudgetW: 6, Cores: 4, GFLOPS: 420, IdleW: 0.9, ActiveW: 5.5},
			{Name: "boost", BudgetW: 9, Cores: 8, GFLOPS: 560, IdleW: 1.1, ActiveW: 8.2},
		},
		BatteryWh: 17, // ~4500 mAh handset
	}
	CPUSlow = Profile{
		Name:               "CPU (slow)",
		GPUMemoryMB:        512,
		IOBandwidthMBps:    60,
		FrameworkInitMs:    1400,
		DispatchOverheadMs: 4.0,
		Modes: []PowerMode{
			{Name: "sustained", BudgetW: 3, Cores: 4, GFLOPS: 85, IdleW: 0.5, ActiveW: 2.8},
		},
		BatteryWh: 11, // ~3000 mAh budget handset
	}
)

// Profiles returns the three platforms in Table I order.
func Profiles() []Profile {
	return []Profile{JetsonNano, JetsonTX2NX, Laptop}
}

// ModelCost is what the simulator needs to know about a model.
type ModelCost struct {
	Name string
	// FLOPsPerInference is the unscaled per-frame cost of the
	// substitute model (Detector.FrameFLOPs or Network.FLOPs).
	FLOPsPerInference int64
	// WeightBytes is the unscaled serialized parameter size.
	WeightBytes int64
	// QuantBits is the weight bit width the model runs at; 0 (or ≥ 64)
	// means full precision. Integer kernels execute faster than fp32 on
	// mobile silicon, so Infer divides by QuantSpeedup(QuantBits).
	QuantBits int
}

// QuantSpeedup returns the execution-throughput multiplier of running at
// the given weight bit width relative to full precision: 1 at fp32, rising
// linearly in the saved bits to ≈1.58× at int8 and ≈1.63× at 4-bit — the
// regime mobile integer kernels report versus fp32. The substitute models'
// FLOP counts do not change under nn.Quantize (same arithmetic, narrower
// weights), so the simulator carries the kernel speedup here instead.
func QuantSpeedup(bits int) float64 {
	if bits <= 0 || bits >= 64 {
		return 1
	}
	return 1 + float64(64-bits)/96
}

// ScaledFLOPs returns the paper-scale per-inference compute.
func (m ModelCost) ScaledFLOPs() float64 { return float64(m.FLOPsPerInference) * FLOPsScale }

// ScaledBytes returns the paper-scale model size in bytes.
func (m ModelCost) ScaledBytes() float64 { return float64(m.WeightBytes) * BytesScale }

// LoadMemoryMB returns the GPU memory consumed by holding the model's
// weights resident.
func (m ModelCost) LoadMemoryMB() float64 { return float64(m.ScaledBytes() / (1 << 20)) }

// ExecMemoryMB returns the working-set memory during inference: weights
// plus activation buffers, which the paper observes dominate (Table IV
// "Execution" column). The multiplier reflects hidden activations and
// framework workspace.
func (m ModelCost) ExecMemoryMB() float64 { return float64(m.LoadMemoryMB()*3) + 450 }

// Simulator tracks simulated time, energy and memory for one device run.
// It is not safe for concurrent use.
type Simulator struct {
	profile Profile
	mode    PowerMode

	busy        time.Duration // time spent computing or loading
	idle        time.Duration // explicit idle time (waiting for frames)
	energyJ     float64
	inited      bool    // framework initialized (first load done)
	residentMB  float64 // loaded model memory
	inferences  int
	peakMemory  float64
	execBoostMB float64 // transient execution memory of the last inference

	// thermal, when non-nil, throttles compute under sustained load;
	// heat is its state (see thermal.go).
	thermal *ThermalModel
	heat    float64
}

// NewSimulator creates a simulator for profile at its default power mode.
// The profile must pass Validate; an invalid profile (no modes, zero
// memory, inconsistent wattage) is an error rather than a later panic.
func NewSimulator(profile Profile) (*Simulator, error) {
	return NewSimulatorAtMode(profile, profile.DefaultMode)
}

// NewSimulatorAtMode selects a specific power mode by index. The profile
// must pass Validate.
func NewSimulatorAtMode(profile Profile, mode int) (*Simulator, error) {
	if err := profile.Validate(); err != nil {
		return nil, err
	}
	if mode < 0 || mode >= len(profile.Modes) {
		return nil, fmt.Errorf("device: %s has no mode %d", profile.Name, mode)
	}
	return &Simulator{profile: profile, mode: profile.Modes[mode]}, nil
}

// Profile returns the simulated device profile.
func (s *Simulator) Profile() Profile { return s.profile }

// Mode returns the active power mode.
func (s *Simulator) Mode() PowerMode { return s.mode }

// Infer charges one inference of model and returns its simulated
// latency, lengthened by thermal throttling when a thermal model is
// attached and the device is hot.
func (s *Simulator) Infer(model ModelCost) time.Duration {
	throughput := s.mode.GFLOPS * 1e9 * s.ThrottleFactor() * QuantSpeedup(model.QuantBits)
	seconds := model.ScaledFLOPs()/throughput + s.profile.DispatchOverheadMs/1e3
	d := time.Duration(seconds * float64(time.Second))
	s.busy += d
	s.energyJ += float64(s.mode.ActiveW * d.Seconds())
	s.advanceThermal(d, s.mode.ActiveW)
	s.inferences++
	s.execBoostMB = model.ExecMemoryMB() - model.LoadMemoryMB()
	if m := s.residentMB + s.execBoostMB; m > s.peakMemory {
		s.peakMemory = m
	}
	return d
}

// ioWatts returns the power drawn by a background model transfer: DMA
// from flash does not light up the compute units, so it sits well below
// ActiveW.
func (s *Simulator) ioWatts() float64 {
	return s.mode.IdleW + float64(0.3*(s.mode.ActiveW-s.mode.IdleW))
}

// LoadModelAsync charges a background model load (flash→GPU transfer):
// I/O energy and overlapped transfer time, with the weights resident when
// it completes. Background loads never block inference — this is the
// paper's miss path, where the best cached model serves the frame while
// the desired model streams in. Framework initialization, if still
// pending, is charged here too.
func (s *Simulator) LoadModelAsync(model ModelCost) time.Duration {
	seconds := model.ScaledBytes() / (s.profile.IOBandwidthMBps * (1 << 20))
	if !s.inited {
		seconds += s.profile.FrameworkInitMs / 1e3
		s.inited = true
	}
	d := time.Duration(seconds * float64(time.Second))
	s.energyJ += float64(s.ioWatts() * d.Seconds())
	s.residentMB += model.LoadMemoryMB()
	if m := s.residentMB + s.execBoostMB; m > s.peakMemory {
		s.peakMemory = m
	}
	return d
}

// LoadModel charges a blocking model load (flash→GPU transfer, plus
// framework initialization if this is the first load of the run) and
// marks the model's weights resident. It returns the simulated load
// latency. Use for cold starts that gate the first inference (Fig. 4a);
// steady-state cache refills use LoadModelAsync.
func (s *Simulator) LoadModel(model ModelCost) time.Duration {
	seconds := model.ScaledBytes() / (s.profile.IOBandwidthMBps * (1 << 20))
	if !s.inited {
		seconds += s.profile.FrameworkInitMs / 1e3
		s.inited = true
	}
	d := time.Duration(seconds * float64(time.Second))
	s.busy += d
	s.energyJ += float64(s.mode.ActiveW * d.Seconds())
	s.residentMB += model.LoadMemoryMB()
	if m := s.residentMB + s.execBoostMB; m > s.peakMemory {
		s.peakMemory = m
	}
	return d
}

// UnloadModel releases a model's resident weights (cache eviction).
func (s *Simulator) UnloadModel(model ModelCost) {
	s.residentMB -= model.LoadMemoryMB()
	if s.residentMB < 0 {
		s.residentMB = 0
	}
}

// Idle advances simulated wall-clock time without compute (e.g. waiting
// for the next camera frame), charging idle power.
func (s *Simulator) Idle(d time.Duration) {
	if d <= 0 {
		return
	}
	s.idle += d
	s.energyJ += float64(s.mode.IdleW * d.Seconds())
	s.advanceThermal(d, s.mode.IdleW)
}

// Elapsed returns total simulated time (busy + idle).
func (s *Simulator) Elapsed() time.Duration { return s.busy + s.idle }

// EnergyJ returns accumulated energy in joules.
func (s *Simulator) EnergyJ() float64 { return s.energyJ }

// AveragePowerW returns energy divided by elapsed time (0 when no time
// has passed).
func (s *Simulator) AveragePowerW() float64 {
	el := s.Elapsed().Seconds()
	if el == 0 {
		return 0
	}
	return s.energyJ / el
}

// FPS returns inferences per second of busy time (0 when idle).
func (s *Simulator) FPS() float64 {
	b := s.busy.Seconds()
	if b == 0 {
		return 0
	}
	return float64(s.inferences) / b
}

// Inferences returns the number of inferences charged.
func (s *Simulator) Inferences() int { return s.inferences }

// ResidentMemoryMB returns the currently loaded model memory.
func (s *Simulator) ResidentMemoryMB() float64 { return s.residentMB }

// PeakMemoryMB returns the peak of resident + execution memory.
func (s *Simulator) PeakMemoryMB() float64 { return s.peakMemory }

// Reset clears all counters but keeps the framework-initialized flag
// cleared too (a fresh process).
func (s *Simulator) Reset() {
	*s = Simulator{profile: s.profile, mode: s.mode}
}

// ResetCounters zeroes time, energy and operation counters while keeping
// the framework initialized and resident models loaded — the steady-state
// measurement boundary after a warm-up phase.
// ResetCounters keeps the thermal state: a warm device stays warm across
// the measurement boundary.
func (s *Simulator) ResetCounters() {
	s.busy, s.idle = 0, 0
	s.energyJ = 0
	s.inferences = 0
	s.peakMemory = s.residentMB + s.execBoostMB
}
