package core

import (
	"fmt"
	"time"

	"anole/internal/detect"
	"anole/internal/device"
	"anole/internal/nn"
	"anole/internal/plan"
	"anole/internal/telemetry"
)

// Per-device planning (internal/plan wired into the multi-stream loop):
// the bundle is expanded into a variant ladder — full precision plus a
// few quantized copies — and every stream is assigned the variant its
// device can actually serve: the most accurate one that fits the
// device's cache byte capacity and meets the latency budget at the
// device's current throttle factor. Pressure-level transitions re-run
// the selection, so a device that heats up steps down to a cheaper
// variant and steps back up when it cools.

// PlanConfig tunes per-device model/quantization selection.
type PlanConfig struct {
	// LatencyBudget is the per-frame target every device should meet
	// (default 33ms — the paper's 30 FPS regime). Devices that cannot
	// meet it on any variant run the fastest one that fits in memory.
	LatencyBudget time.Duration
}

// quantLadder lists the detector bit widths offered as variants in
// addition to the full-precision bundle.
var quantLadder = []int{8, 6, 4}

// planCells is the frame grid cell count used for FLOP estimates: the
// synthetic world's 8×8 grid.
const planCells = 64

func (c *PlanConfig) budget() time.Duration {
	if c == nil || c.LatencyBudget <= 0 {
		return 33 * time.Millisecond
	}
	return c.LatencyBudget
}

// planVariant couples one runnable bundle with its planning estimates.
type planVariant struct {
	bundle *Bundle
	est    plan.Variant
}

// planState is the per-device selector's runtime state.
type planState struct {
	variants []planVariant // variants[0] is the full-precision bundle
	ests     []plan.Variant
	budget   time.Duration
	choices  []int // per-stream variant index
	// replans counts variant switches applied after the initial plan;
	// infeasible counts streams whose device cannot meet the latency
	// budget on any variant (they run the fastest fit).
	replans    *telemetry.Counter
	infeasible *telemetry.Gauge
}

// newPlanState builds the variant ladder: the base bundle plus one
// quantized copy per ladder width. Quantized variants rename their
// detectors ("<name>@q8"), so cache keys, prefetch models and byte-size
// accounting stay distinct per variant.
func newPlanState(b *Bundle, cfg *PlanConfig, streams int, reg *telemetry.Registry) (*planState, error) {
	ps := &planState{
		budget:  cfg.budget(),
		choices: make([]int, streams),
	}
	ps.variants = append(ps.variants, planVariant{bundle: b, est: variantEstimate(b, "fp32", 0)})
	for _, bits := range quantLadder {
		qb, err := quantVariantBundle(b, bits)
		if err != nil {
			return nil, err
		}
		name := fmt.Sprintf("q%d", bits)
		ps.variants = append(ps.variants, planVariant{bundle: qb, est: variantEstimate(qb, name, bits)})
	}
	ps.ests = make([]plan.Variant, len(ps.variants))
	for i, v := range ps.variants {
		ps.ests[i] = v.est
	}
	ps.replans = reg.Counter("anole_plan_replans_total", "variant switches applied by per-device re-planning")
	ps.infeasible = reg.Gauge("anole_plan_infeasible_streams", "streams whose device meets the latency budget on no variant")
	return ps, nil
}

// variantEstimate summarizes one bundle for the solver: decision cost,
// the worst detector's per-frame cost, the repertoire's total resident
// size (cache sizer units), and expected accuracy (mean validation F1
// scaled by the quantization penalty).
func variantEstimate(b *Bundle, name string, bits int) plan.Variant {
	var detectFLOPs, size int64
	for _, d := range b.Detectors {
		if f := d.FrameFLOPs(planCells); f > detectFLOPs {
			detectFLOPs = f
		}
		size += d.SizeBytes()
	}
	var f1 float64
	for _, info := range b.Infos {
		f1 += info.ValF1
	}
	if len(b.Infos) > 0 {
		f1 /= float64(len(b.Infos))
	}
	return plan.Variant{
		Name:        name,
		QuantBits:   bits,
		DecideFLOPs: b.Decision.FLOPs(),
		DetectFLOPs: detectFLOPs,
		SizeBytes:   size,
		Accuracy:    f1 * nn.QuantAccuracyFactor(bits),
	}
}

// quantVariantBundle is QuantizeBundle plus a rename: every detector
// (and its info) becomes "<name>@q<bits>", keeping variant cache keys
// disjoint from the base bundle's.
func quantVariantBundle(b *Bundle, bits int) (*Bundle, error) {
	qb, err := QuantizeBundle(b, bits)
	if err != nil {
		return nil, err
	}
	detectors := make([]*detect.Detector, len(qb.Detectors))
	infos := append([]ModelInfo(nil), qb.Infos...)
	for i, d := range qb.Detectors {
		name := fmt.Sprintf("%s@q%d", d.Name, bits)
		rd, err := detect.FromWeights(name, d.Arch, d.FeatDim(), d.Weights())
		if err != nil {
			return nil, fmt.Errorf("core: variant q%d: %w", bits, err)
		}
		detectors[i] = rd
		infos[i].Name = name
	}
	qb.Detectors = detectors
	qb.Infos = infos
	return qb, nil
}

// cacheByteCapacity converts a profile's GPU memory into the model
// cache's sizer units (serialized bytes; the device charges paper-scale
// bytes, WeightBytes × BytesScale).
func cacheByteCapacity(p device.Profile) int64 {
	return int64(p.GPUMemoryMB * float64(1<<20) / device.BytesScale)
}

// planDevice snapshots stream i's device as the solver sees it right
// now: mode throughput, current throttle factor, its own memory ceiling.
func (m *MultiRuntime) planDevice(i int) plan.Device {
	a := m.fleet[i]
	mode := a.Profile.Modes[a.Mode]
	throttle := 1.0
	if m.devs[i] != nil {
		throttle = m.devs[i].ThrottleFactor()
	}
	return plan.Device{
		Name:               a.Profile.Name,
		GFLOPS:             mode.GFLOPS,
		Throttle:           throttle,
		DispatchOverheadMs: a.Profile.DispatchOverheadMs,
		MemoryBytes:        cacheByteCapacity(a.Profile),
		LatencyBudget:      m.plan.budget,
	}
}

// applyInitialPlan runs the solver once per stream at construction time
// and deploys each stream's chosen variant. A device no variant fits is
// a configuration error and fails construction.
func (m *MultiRuntime) applyInitialPlan() error {
	infeasible := 0
	for i, rt := range m.streams {
		choice, err := plan.Select(m.planDevice(i), m.plan.ests)
		if err != nil {
			return fmt.Errorf("core: stream %d (%s): %w", i, m.fleet[i].Class, err)
		}
		if !choice.Feasible {
			infeasible++
		}
		if choice.Index != 0 {
			if err := rt.SwapBundle(m.plan.variants[choice.Index].bundle); err != nil {
				return fmt.Errorf("core: stream %d: %w", i, err)
			}
			rt.pfOffset = choice.Index * m.bundle.NumModels()
		}
		m.plan.choices[i] = choice.Index
	}
	m.plan.infeasible.Set(float64(infeasible))
	return nil
}

// replanStreams re-runs the solver with each device's current throttle
// factor and swaps streams whose best variant changed — called on
// pressure-level transitions. Selection failures (which cannot happen
// after a successful initial plan: throttling never changes a variant's
// size) leave the stream on its current variant.
func (m *MultiRuntime) replanStreams() {
	if m.plan == nil {
		return
	}
	infeasible := 0
	for i, rt := range m.streams {
		cur := m.plan.choices[i]
		choice, err := plan.Select(m.planDevice(i), m.plan.ests)
		if err != nil {
			continue
		}
		if !choice.Feasible {
			infeasible++
		}
		if choice.Index == cur {
			continue
		}
		if err := rt.SwapBundle(m.plan.variants[choice.Index].bundle); err != nil {
			continue
		}
		rt.pfOffset = choice.Index * m.bundle.NumModels()
		m.plan.choices[i] = choice.Index
		m.plan.replans.Inc()
	}
	m.plan.infeasible.Set(float64(infeasible))
}

// StreamVariant returns the name of the planner variant stream i runs
// ("fp32", "q8", ...), or "" when planning is disabled.
func (m *MultiRuntime) StreamVariant(i int) string {
	if m.plan == nil {
		return ""
	}
	return m.plan.variants[m.plan.choices[i]].est.Name
}
