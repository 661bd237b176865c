package device

import (
	"testing"
	"time"
)

// tinyModel and deepModel mirror the real substitute detectors: ~48k
// FLOPs/frame and ~3 KB of weights for the compressed head, ~10x both for
// the deep one (≈5.8 vs 61 BFLOPs at paper scale).
var tinyModel = ModelCost{Name: "tiny", FLOPsPerInference: 48_000, WeightBytes: 3_100}

var deepModel = ModelCost{Name: "deep", FLOPsPerInference: 510_000, WeightBytes: 32_000}

// mustSim builds a simulator for a known-valid profile.
func mustSim(t *testing.T, p Profile) *Simulator {
	t.Helper()
	s, err := NewSimulator(p)
	if err != nil {
		t.Fatalf("NewSimulator(%s): %v", p.Name, err)
	}
	return s
}

func TestProfilesOrdering(t *testing.T) {
	ps := Profiles()
	if len(ps) != 3 {
		t.Fatalf("profiles = %d", len(ps))
	}
	if ps[0].Name != JetsonNano.Name || ps[2].Name != Laptop.Name {
		t.Fatal("profile order wrong")
	}
	for _, p := range ps {
		if len(p.Modes) == 0 {
			t.Fatalf("%s has no power modes", p.Name)
		}
		if p.DefaultMode < 0 || p.DefaultMode >= len(p.Modes) {
			t.Fatalf("%s default mode out of range", p.Name)
		}
	}
}

func TestInferLatencyOrdering(t *testing.T) {
	// Table IV shape: TX2 NX fastest, Nano slowest for the same model.
	nano := mustSim(t, JetsonNano)
	tx2 := mustSim(t, JetsonTX2NX)
	lat := map[string]time.Duration{
		"nano": nano.Infer(tinyModel),
		"tx2":  tx2.Infer(tinyModel),
	}
	if lat["tx2"] >= lat["nano"] {
		t.Fatalf("TX2 (%v) should beat Nano (%v)", lat["tx2"], lat["nano"])
	}
}

func TestDeepSlowerThanTiny(t *testing.T) {
	for _, p := range Profiles() {
		s := mustSim(t, p)
		tiny := s.Infer(tinyModel)
		deep := s.Infer(deepModel)
		if deep <= tiny {
			t.Fatalf("%s: deep %v not slower than tiny %v", p.Name, deep, tiny)
		}
	}
}

func TestTinyLatencyMagnitude(t *testing.T) {
	// With FLOPsScale the tiny detector should land in the paper's
	// regime: ~1-60 ms on Jetson-class devices.
	s := mustSim(t, JetsonTX2NX)
	lat := s.Infer(tinyModel)
	if lat < time.Millisecond || lat > 100*time.Millisecond {
		t.Fatalf("tiny latency on TX2 = %v, want milliseconds", lat)
	}
}

func TestFirstLoadPaysFrameworkInit(t *testing.T) {
	s := mustSim(t, JetsonTX2NX)
	first := s.LoadModel(tinyModel)
	second := s.LoadModel(tinyModel)
	if first <= second {
		t.Fatalf("first load %v should exceed subsequent load %v", first, second)
	}
	diff := (first - second).Seconds() * 1e3
	if diff < JetsonTX2NX.FrameworkInitMs*0.9 {
		t.Fatalf("framework init not charged: delta %vms", diff)
	}
}

func TestMemoryAccounting(t *testing.T) {
	s := mustSim(t, JetsonNano)
	if s.ResidentMemoryMB() != 0 {
		t.Fatal("fresh simulator has resident memory")
	}
	s.LoadModel(tinyModel)
	if s.ResidentMemoryMB() <= 0 {
		t.Fatal("load did not account memory")
	}
	before := s.ResidentMemoryMB()
	s.LoadModel(deepModel)
	s.UnloadModel(deepModel)
	if s.ResidentMemoryMB() != before {
		t.Fatalf("unload did not restore memory: %v vs %v", s.ResidentMemoryMB(), before)
	}
	s.UnloadModel(deepModel) // extra unload must clamp at 0, not go negative
	s.UnloadModel(tinyModel)
	s.UnloadModel(tinyModel)
	if s.ResidentMemoryMB() < 0 {
		t.Fatal("resident memory went negative")
	}
}

func TestPeakMemoryIncludesExecution(t *testing.T) {
	s := mustSim(t, JetsonNano)
	s.LoadModel(tinyModel)
	s.Infer(tinyModel)
	if s.PeakMemoryMB() <= s.ResidentMemoryMB() {
		t.Fatal("peak memory should include execution working set")
	}
}

func TestEnergyAndPower(t *testing.T) {
	s := mustSim(t, JetsonTX2NX)
	if s.AveragePowerW() != 0 {
		t.Fatal("no-time power should be 0")
	}
	s.Infer(deepModel)
	if s.EnergyJ() <= 0 {
		t.Fatal("inference consumed no energy")
	}
	p := s.AveragePowerW()
	mode := s.Mode()
	if p <= 0 || p > mode.ActiveW+1e-9 {
		t.Fatalf("average power %v outside (0, %v]", p, mode.ActiveW)
	}
	// Idling lowers average power toward idle draw.
	s.Idle(10 * time.Second)
	if s.AveragePowerW() >= p {
		t.Fatal("idling should lower average power")
	}
	s.Idle(-time.Second) // no-op
}

func TestPowerModesSweep(t *testing.T) {
	// Fig. 11 shape: higher power modes are faster (higher FPS) and
	// draw more power.
	var prevLat time.Duration
	var prevPower float64
	for i := range JetsonTX2NX.Modes {
		s, err := NewSimulatorAtMode(JetsonTX2NX, i)
		if err != nil {
			t.Fatal(err)
		}
		lat := s.Infer(tinyModel)
		if i > 0 {
			if lat >= prevLat {
				t.Fatalf("mode %d latency %v not below mode %d's %v", i, lat, i-1, prevLat)
			}
			if s.AveragePowerW() <= prevPower {
				t.Fatalf("mode %d power not above mode %d", i, i-1)
			}
		}
		prevLat = lat
		prevPower = s.AveragePowerW()
	}
}

func TestNewSimulatorAtModeValidation(t *testing.T) {
	if _, err := NewSimulatorAtMode(JetsonNano, 5); err == nil {
		t.Fatal("invalid mode accepted")
	}
	if _, err := NewSimulatorAtMode(JetsonNano, -1); err == nil {
		t.Fatal("negative mode accepted")
	}
}

func TestFPS(t *testing.T) {
	s := mustSim(t, JetsonTX2NX)
	if s.FPS() != 0 {
		t.Fatal("fresh FPS should be 0")
	}
	for i := 0; i < 30; i++ {
		s.Infer(tinyModel)
	}
	fps := s.FPS()
	if fps <= 0 {
		t.Fatalf("fps = %v", fps)
	}
	// Paper: TX2 NX at 20W runs Anole's compressed models above 30 FPS.
	if fps < 30 {
		t.Fatalf("TX2 tiny-model FPS = %v, want > 30", fps)
	}
}

func TestCountersAndReset(t *testing.T) {
	s := mustSim(t, JetsonNano)
	s.Infer(tinyModel)
	s.LoadModel(tinyModel)
	if s.Inferences() != 1 {
		t.Fatalf("inferences: %d", s.Inferences())
	}
	if s.Elapsed() <= 0 {
		t.Fatal("time not accumulated")
	}
	s.Reset()
	if s.Inferences() != 0 || s.EnergyJ() != 0 || s.ResidentMemoryMB() != 0 {
		t.Fatal("reset incomplete")
	}
	// After reset, framework init must be charged again.
	first := s.LoadModel(tinyModel)
	if first.Seconds()*1e3 < JetsonNano.FrameworkInitMs*0.9 {
		t.Fatal("framework init not re-charged after reset")
	}
}

func TestModelCostScaling(t *testing.T) {
	if tinyModel.ScaledFLOPs() != float64(tinyModel.FLOPsPerInference)*FLOPsScale {
		t.Fatal("flop scaling wrong")
	}
	if tinyModel.ScaledBytes() != float64(tinyModel.WeightBytes)*BytesScale {
		t.Fatal("byte scaling wrong")
	}
	if tinyModel.LoadMemoryMB() <= 0 || tinyModel.ExecMemoryMB() <= tinyModel.LoadMemoryMB() {
		t.Fatal("memory model wrong")
	}
}

func TestLoadLatencyProportionalToSize(t *testing.T) {
	s := mustSim(t, JetsonTX2NX)
	s.LoadModel(tinyModel) // absorb framework init
	small := s.LoadModel(tinyModel)
	big := s.LoadModel(deepModel)
	if big <= small {
		t.Fatalf("bigger model should load slower: %v vs %v", big, small)
	}
}

func TestThermalThrottlingUnderSustainedLoad(t *testing.T) {
	hot := mustSim(t, JetsonTX2NX) // 20W mode, ActiveW 17.8 >> sustainable 7W
	hot.EnableThermal(DefaultThermal())
	cold := mustSim(t, JetsonTX2NX)

	first := hot.Infer(deepModel)
	if first != cold.Infer(deepModel) {
		t.Fatal("cool device must match the unthrottled one")
	}
	// Sustain heavy load well past the time constant.
	var last time.Duration
	for i := 0; i < 3000; i++ {
		last = hot.Infer(deepModel)
	}
	if hot.Heat() <= 1 {
		t.Fatalf("sustained load did not exceed the envelope: heat %v", hot.Heat())
	}
	if hot.ThrottleFactor() >= 1 {
		t.Fatal("no throttling applied")
	}
	if last <= first {
		t.Fatalf("throttled inference %v not slower than cold %v", last, first)
	}
	// Idling cools the device back down.
	hot.Idle(10 * time.Minute)
	if hot.ThrottleFactor() < 1 {
		t.Fatalf("device did not cool: heat %v", hot.Heat())
	}
}

func TestThermalDisabledByDefault(t *testing.T) {
	s := mustSim(t, JetsonTX2NX)
	for i := 0; i < 500; i++ {
		s.Infer(deepModel)
	}
	if s.ThrottleFactor() != 1 || s.Heat() != 0 {
		t.Fatal("thermal model must be opt-in")
	}
}

func TestThermalLightLoadStaysCool(t *testing.T) {
	s := mustSim(t, JetsonTX2NX)
	s.EnableThermal(DefaultThermal())
	// 30 FPS duty cycle with the tiny model: mostly idle.
	for i := 0; i < 2000; i++ {
		lat := s.Infer(tinyModel)
		s.Idle(33*time.Millisecond - lat)
	}
	if s.ThrottleFactor() < 1 {
		t.Fatalf("light duty cycle throttled: heat %v", s.Heat())
	}
}
