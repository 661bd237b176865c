package device

import (
	"math"
	"reflect"
	"strings"
	"testing"
	"time"
)

func TestProfileValidate(t *testing.T) {
	for _, p := range []Profile{JetsonNano, JetsonTX2NX, Laptop, CPUFast, CPUSlow} {
		if err := p.Validate(); err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
	}
	cases := []struct {
		name string
		mut  func(*Profile)
	}{
		{"no modes", func(p *Profile) { p.Modes = nil }},
		{"default mode out of range", func(p *Profile) { p.DefaultMode = 9 }},
		{"negative default mode", func(p *Profile) { p.DefaultMode = -1 }},
		{"zero memory", func(p *Profile) { p.GPUMemoryMB = 0 }},
		{"zero bandwidth", func(p *Profile) { p.IOBandwidthMBps = 0 }},
		{"negative init", func(p *Profile) { p.FrameworkInitMs = -1 }},
		{"negative battery", func(p *Profile) { p.BatteryWh = -1 }},
		{"zero throughput", func(p *Profile) { p.Modes[0].GFLOPS = 0 }},
		{"zero budget", func(p *Profile) { p.Modes[0].BudgetW = 0 }},
		{"active below idle", func(p *Profile) { p.Modes[0].ActiveW = p.Modes[0].IdleW - 1 }},
		{"negative idle", func(p *Profile) { p.Modes[0].IdleW = -1 }},
	}
	for _, tc := range cases {
		p := JetsonNano
		p.Modes = append([]PowerMode(nil), JetsonNano.Modes...)
		tc.mut(&p)
		if err := p.Validate(); err == nil {
			t.Errorf("%s: Validate accepted the broken profile", tc.name)
		}
		if _, err := NewSimulator(p); err == nil {
			t.Errorf("%s: NewSimulator accepted the broken profile", tc.name)
		}
		if len(p.Modes) > 0 {
			if _, err := NewSimulatorAtMode(p, 0); err == nil {
				t.Errorf("%s: NewSimulatorAtMode accepted the broken profile", tc.name)
			}
		}
	}
}

// Each power mode attributes idle vs active wattage to itself, keeps
// energy monotone and keeps the throttle factor bounded, also when
// sustained load heats the device.
func TestSimulatorPerModeEnergyAccounting(t *testing.T) {
	var prevEnergy float64
	check := func(s *Simulator, stage string) {
		if s.EnergyJ() < prevEnergy {
			t.Fatalf("%s: energy went backwards: %v -> %v", stage, prevEnergy, s.EnergyJ())
		}
		prevEnergy = s.EnergyJ()
		if tf := s.ThrottleFactor(); tf <= 0 || tf > 1 {
			t.Fatalf("%s: throttle factor %v outside (0,1]", stage, tf)
		}
	}
	atMode := func(mode int) *Simulator {
		s, err := NewSimulatorAtMode(JetsonTX2NX, mode)
		if err != nil {
			t.Fatal(err)
		}
		s.EnableThermal(DefaultThermal())
		prevEnergy = 0
		return s
	}

	// Active work at the low mode charges that mode's ActiveW.
	low := atMode(0)
	lat := low.Infer(deepModel)
	check(low, "low-mode infer")
	wantJ := JetsonTX2NX.Modes[0].ActiveW * lat.Seconds()
	if math.Abs(low.EnergyJ()-wantJ) > 1e-9 {
		t.Fatalf("low-mode infer charged %vJ, want %vJ", low.EnergyJ(), wantJ)
	}

	// Idle at the low mode charges IdleW, not ActiveW.
	before := low.EnergyJ()
	low.Idle(time.Second)
	check(low, "low-mode idle")
	idleJ := low.EnergyJ() - before
	if math.Abs(idleJ-JetsonTX2NX.Modes[0].IdleW) > 1e-9 {
		t.Fatalf("idle second charged %vJ, want IdleW %v", idleJ, JetsonTX2NX.Modes[0].IdleW)
	}

	// The high mode is faster per inference and charges its own ActiveW.
	high := atMode(3)
	latHigh := high.Infer(deepModel)
	check(high, "high-mode infer")
	if latHigh >= lat {
		t.Fatalf("high mode (%v) not faster than low mode (%v)", latHigh, lat)
	}
	gotW := high.EnergyJ() / latHigh.Seconds()
	if math.Abs(gotW-JetsonTX2NX.Modes[3].ActiveW) > 1e-9 {
		t.Fatalf("high-mode infer drew %vW, want ActiveW %v", gotW, JetsonTX2NX.Modes[3].ActiveW)
	}

	// Sustained high-mode load heats the device; throttle stays bounded
	// and energy stays monotone all the way through.
	for i := 0; i < 2000; i++ {
		high.Infer(deepModel)
		check(high, "sustained load")
	}
	if high.ThrottleFactor() >= 1 {
		t.Fatal("sustained 20W load did not throttle")
	}
}

func TestQuantSpeedup(t *testing.T) {
	if QuantSpeedup(0) != 1 || QuantSpeedup(64) != 1 || QuantSpeedup(-3) != 1 {
		t.Fatal("full precision must run at 1x")
	}
	prev := 1.0
	for _, bits := range []int{16, 8, 6, 4, 2} {
		sp := QuantSpeedup(bits)
		if sp <= prev {
			t.Fatalf("speedup not increasing as bits shrink: %d-bit %v <= %v", bits, sp, prev)
		}
		if sp > 2 {
			t.Fatalf("%d-bit speedup %v implausibly large", bits, sp)
		}
		prev = sp
	}
	// The simulator actually applies it: same FLOPs, fewer bits, less time.
	s := mustSim(t, JetsonTX2NX)
	fp := s.Infer(deepModel)
	q := deepModel
	q.QuantBits = 8
	if got := s.Infer(q); got >= fp {
		t.Fatalf("8-bit inference %v not faster than fp32 %v", got, fp)
	}
}

func TestParseFleetSpec(t *testing.T) {
	spec, err := ParseFleetSpec("nano:40, tx2:40,laptop:20")
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Entries) != 3 {
		t.Fatalf("entries = %d", len(spec.Entries))
	}
	if spec.Entries[0].Class != "nano" || spec.Entries[0].Weight != 40 {
		t.Fatalf("first entry = %+v", spec.Entries[0])
	}
	if spec.Entries[1].Mode != JetsonTX2NX.DefaultMode {
		t.Fatal("default mode not applied")
	}

	// Mode override renames the class; selecting the default mode
	// explicitly keeps the plain name.
	spec, err = ParseFleetSpec("tx2@1:1,tx2@3:1")
	if err != nil {
		t.Fatal(err)
	}
	if spec.Entries[0].Class != "tx2_m1" || spec.Entries[0].Mode != 1 {
		t.Fatalf("mode-override entry = %+v", spec.Entries[0])
	}
	if spec.Entries[1].Class != "tx2" {
		t.Fatalf("default-mode override should keep the plain class, got %q", spec.Entries[1].Class)
	}

	for _, bad := range []string{
		"", "  ", ",", "nano", "nano:", "nano:0", "nano:-3", "nano:x",
		"warp9:10", "nano:10,,tx2:5", "tx2@9:1", "tx2@x:1", "nano:40;tx2:60",
	} {
		if _, err := ParseFleetSpec(bad); err == nil {
			t.Errorf("spec %q accepted", bad)
		}
	}
}

func TestFleetBuildDeterministicAndProportional(t *testing.T) {
	spec, err := ParseFleetSpec("nano:40,tx2:40,laptop:20")
	if err != nil {
		t.Fatal(err)
	}
	for _, streams := range []int{1, 3, 10, 100, 101} {
		a, err := spec.Build(streams, 42)
		if err != nil {
			t.Fatal(err)
		}
		if len(a) != streams {
			t.Fatalf("streams=%d: built %d assignments", streams, len(a))
		}
		if err := a.Validate(); err != nil {
			t.Fatal(err)
		}
		b, err := spec.Build(streams, 42)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("streams=%d: same seed produced different fleets", streams)
		}
		// Proportions match weights within rounding: each class's count
		// is within 1 of its exact share.
		counts := a.Counts()
		for class, weight := range map[string]int{"nano": 40, "tx2": 40, "laptop": 20} {
			exact := float64(streams) * float64(weight) / 100
			if d := math.Abs(float64(counts[class]) - exact); d >= 1 {
				t.Fatalf("streams=%d class %s: count %d vs exact share %v", streams, class, counts[class], exact)
			}
		}
	}
	// Different seeds may place classes differently but keep the counts.
	a, _ := spec.Build(100, 1)
	b, _ := spec.Build(100, 2)
	if !reflect.DeepEqual(a.Counts(), b.Counts()) {
		t.Fatal("seed changed the apportionment, not just the placement")
	}
}

func TestUniformFleet(t *testing.T) {
	f := UniformFleet(JetsonTX2NX, 4)
	if len(f) != 4 {
		t.Fatalf("len = %d", len(f))
	}
	if err := f.Validate(); err != nil {
		t.Fatal(err)
	}
	for _, a := range f {
		if a.Class != "tx2" || a.Mode != JetsonTX2NX.DefaultMode {
			t.Fatalf("assignment = %+v", a)
		}
	}
	if got := f.MaxGPUMemoryMB(); got != JetsonTX2NX.GPUMemoryMB {
		t.Fatalf("MaxGPUMemoryMB = %v", got)
	}
	if cs := f.Classes(); len(cs) != 1 || cs[0] != "tx2" {
		t.Fatalf("classes = %v", cs)
	}
}

func TestSanitizeClass(t *testing.T) {
	cases := map[string]string{
		"Jetson TX2 NX":          "jetson_tx2_nx",
		"CPU (fast)":             "cpu_fast",
		"Laptop (i7 + RTX 2070)": "laptop_i7_rtx_2070",
		"  ":                     "device",
		"2070":                   "d2070",
	}
	for in, want := range cases {
		if got := sanitizeClass(in); got != want {
			t.Errorf("sanitizeClass(%q) = %q, want %q", in, got, want)
		}
	}
}

// FuzzParseFleetSpec: the parser must never panic, and anything it
// accepts must build a valid fleet with exactly the requested streams.
func FuzzParseFleetSpec(f *testing.F) {
	f.Add("nano:40,tx2:40,laptop:20")
	f.Add("tx2@1:3,cpu-slow:7")
	f.Add("")
	f.Add("nano:-1")
	f.Add("nano:99999999999999999999")
	f.Add("unknown:5")
	f.Add("nano@:1")
	f.Add(",,,")
	f.Add("nano:1,nano:1,nano:1")
	f.Fuzz(func(t *testing.T, spec string) {
		parsed, err := ParseFleetSpec(spec)
		if err != nil {
			return
		}
		if len(parsed.Entries) == 0 {
			t.Fatalf("spec %q parsed to zero entries without error", spec)
		}
		fleet, err := parsed.Build(17, 7)
		if err != nil {
			t.Fatalf("spec %q parsed but did not build: %v", spec, err)
		}
		if len(fleet) != 17 {
			t.Fatalf("spec %q built %d assignments, want 17", spec, len(fleet))
		}
		if err := fleet.Validate(); err != nil {
			t.Fatalf("spec %q built an invalid fleet: %v", spec, err)
		}
		for _, a := range fleet {
			if strings.ContainsAny(a.Class, " \t\n:,@") {
				t.Fatalf("class %q contains separator characters", a.Class)
			}
		}
	})
}
