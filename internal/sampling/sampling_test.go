package sampling

import (
	"math"
	"slices"
	"testing"

	"anole/internal/detect"
	"anole/internal/stats"
	"anole/internal/synth"
	"anole/internal/xrand"
)

// fixture builds two scene-specialist detectors with pools of very
// different sizes, so balance effects are visible.
type fixture struct {
	models []*detect.Detector
	pools  []Pool
}

func buildFixture(t *testing.T, seed uint64, sizeA, sizeB int) fixture {
	t.Helper()
	w, err := synth.NewWorld(synth.DefaultConfig(seed))
	if err != nil {
		t.Fatal(err)
	}
	rng := xrand.New(seed + 1)
	sceneA := synth.Scene{Weather: synth.Clear, Location: synth.Urban, Time: synth.Daytime}
	sceneB := synth.Scene{Weather: synth.Clear, Location: synth.Highway, Time: synth.Night}

	gen := func(s synth.Scene, n int) []*synth.Frame {
		frames := make([]*synth.Frame, n)
		for i := range frames {
			frames[i] = w.GenerateFrame(s, 1.2, rng)
		}
		return frames
	}
	poolA := gen(sceneA, sizeA)
	poolB := gen(sceneB, sizeB)

	mkDet := func(name string, frames []*synth.Frame) *detect.Detector {
		d := detect.NewDetector(name, detect.Compressed, 8, rng)
		if err := d.Train(frames, nil, detect.TrainConfig{Epochs: 10, RNG: rng}); err != nil {
			t.Fatal(err)
		}
		return d
	}
	return fixture{
		models: []*detect.Detector{mkDet("A", poolA), mkDet("B", poolB)},
		pools: []Pool{
			{ModelIdx: 0, Frames: poolA},
			{ModelIdx: 1, Frames: poolB},
		},
	}
}

func TestWellSampledBound(t *testing.T) {
	// The bound is the coupon-collector-style count needed to have seen
	// the pool with confidence theta; it grows with pool size and with
	// theta.
	b100 := WellSampledBound(100, 0.95)
	b1000 := WellSampledBound(1000, 0.95)
	if b100 <= 0 || b1000 <= b100 {
		t.Fatalf("bounds: %v, %v", b100, b1000)
	}
	if WellSampledBound(100, 0.99) <= b100 {
		t.Fatal("higher confidence should need more samples")
	}
	// n·ln(n) scale sanity: for n=100, θ=0.95 the bound is a few
	// hundred.
	if b100 < 100 || b100 > 2000 {
		t.Fatalf("bound(100, .95) = %v, implausible", b100)
	}
}

func TestWellSampledBoundDegenerate(t *testing.T) {
	if WellSampledBound(0, 0.95) != 0 || WellSampledBound(1, 0.95) != 0 {
		t.Fatal("degenerate sizes should give 0")
	}
	if WellSampledBound(10, 0) != 0 || WellSampledBound(10, 1) != 0 {
		t.Fatal("degenerate theta should give 0")
	}
}

func TestAdaptiveBalancesPools(t *testing.T) {
	fx := buildFixture(t, 100, 400, 40) // 10x size imbalance
	cfg := Config{Kappa: 200, RNG: xrand.New(101)}
	adaptive, err := Adaptive(fx.models, fx.pools, cfg)
	if err != nil {
		t.Fatal(err)
	}
	random, err := Random(fx.models, fx.pools, Config{Kappa: 200, RNG: xrand.New(102)})
	if err != nil {
		t.Fatal(err)
	}
	giniA := stats.Gini(toFloat(adaptive.Counts))
	giniR := stats.Gini(toFloat(random.Counts))
	if giniA >= giniR {
		t.Fatalf("adaptive Gini %v not below random %v (counts %v vs %v)",
			giniA, giniR, adaptive.Counts, random.Counts)
	}
}

func TestRandomFollowsPoolSizes(t *testing.T) {
	fx := buildFixture(t, 103, 300, 30)
	res, err := Random(fx.models, fx.pools, Config{Kappa: 300, RNG: xrand.New(104)})
	if err != nil {
		t.Fatal(err)
	}
	if res.Counts[0] <= res.Counts[1] {
		t.Fatalf("random sampling should favor the big pool: %v", res.Counts)
	}
}

func TestAdaptiveCollectsUpToKappa(t *testing.T) {
	fx := buildFixture(t, 105, 120, 120)
	res, err := Adaptive(fx.models, fx.pools, Config{Kappa: 50, RNG: xrand.New(106)})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Samples) == 0 {
		t.Fatal("no samples collected")
	}
	if len(res.Samples) > 50 {
		t.Fatalf("collected %d > kappa", len(res.Samples))
	}
	var sum int
	for _, c := range res.Counts {
		sum += c
	}
	if sum != res.Rounds {
		t.Fatalf("selection counts sum %d != rounds %d", sum, res.Rounds)
	}
	if sum < len(res.Samples) {
		t.Fatalf("selections %d below accepted samples %d", sum, len(res.Samples))
	}
	for _, s := range res.Samples {
		if s.Frame == nil {
			t.Fatal("nil frame in samples")
		}
		if s.ModelIdx < 0 || s.ModelIdx >= len(fx.models) {
			t.Fatalf("bad model index %d", s.ModelIdx)
		}
	}
}

func TestAdaptiveSamplesAreAccurate(t *testing.T) {
	fx := buildFixture(t, 107, 100, 100)
	cfg := Config{Kappa: 60, AcceptF1: 0.5, RNG: xrand.New(108)}
	res, err := Adaptive(fx.models, fx.pools, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range res.Samples {
		if f1 := evaluateFrame(fx.models[s.ModelIdx], s.Frame).F1; f1 < cfg.AcceptF1 {
			t.Fatalf("accepted sample with F1 %v < %v", f1, cfg.AcceptF1)
		}
	}
}

func TestAdaptiveStopsWhenAllWellSampled(t *testing.T) {
	// Tiny pools have tiny well-sampled bounds, so the loop must stop
	// early rather than spin to MaxRounds.
	fx := buildFixture(t, 109, 12, 12)
	res, err := Adaptive(fx.models, fx.pools, Config{Kappa: 100000, MaxRounds: 200000, RNG: xrand.New(110)})
	if err != nil {
		t.Fatal(err)
	}
	bound := WellSampledBound(12, 0.95)
	for i, c := range res.Counts {
		if float64(c) > bound+1 {
			t.Fatalf("pool %d oversampled: %d > bound %v", i, c, bound)
		}
	}
	if res.Rounds >= 200000 {
		t.Fatal("loop did not terminate early")
	}
}

func TestSamplingValidation(t *testing.T) {
	fx := buildFixture(t, 111, 20, 20)
	if _, err := Adaptive(fx.models, nil, Config{RNG: xrand.New(1)}); err == nil {
		t.Fatal("empty pools accepted")
	}
	bad := []Pool{{ModelIdx: 9, Frames: fx.pools[0].Frames}}
	if _, err := Adaptive(fx.models, bad, Config{RNG: xrand.New(1)}); err == nil {
		t.Fatal("out-of-range model index accepted")
	}
	empty := []Pool{{ModelIdx: 0}}
	if _, err := Random(fx.models, empty, Config{RNG: xrand.New(1)}); err == nil {
		t.Fatal("empty pool accepted")
	}
}

func TestNormalizedCounts(t *testing.T) {
	r := Result{Counts: []int{2, 4, 1}}
	norm := r.NormalizedCounts()
	if norm[1] != 1 || norm[0] != 0.5 || norm[2] != 0.25 {
		t.Fatalf("normalized: %v", norm)
	}
	zero := Result{Counts: []int{0, 0}}
	for _, v := range zero.NormalizedCounts() {
		if v != 0 {
			t.Fatal("zero counts should normalize to zero")
		}
	}
}

func TestAdaptiveDeterministic(t *testing.T) {
	fx := buildFixture(t, 112, 60, 60)
	run := func() Result {
		res, err := Adaptive(fx.models, fx.pools, Config{Kappa: 40, RNG: xrand.New(113)})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if len(a.Samples) != len(b.Samples) || a.Rounds != b.Rounds {
		t.Fatal("adaptive sampling not deterministic")
	}
	for i := range a.Counts {
		if a.Counts[i] != b.Counts[i] {
			t.Fatal("counts differ across identical runs")
		}
	}
}

func toFloat(xs []int) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = float64(x)
	}
	return out
}

// evaluateFrame scores d on f alone: ScoreBatch over the one frame.
func evaluateFrame(d *detect.Detector, f *synth.Frame) stats.PRF1 {
	return d.ScoreBatch(nil, []*synth.Frame{f}, nil)[0]
}

// TestAcceptedLabelsMatchesPerModelEvaluation pins the count table's probe
// test, which scores every frame with batched detection once, against
// the direct form: gate on the pool model's one-frame score, then score
// the frame alone with every model. Every frame of both pools is probed
// from both pools' models at two acceptance levels; the labels, their
// F1 values and their order must match exactly.
func TestAcceptedLabelsMatchesPerModelEvaluation(t *testing.T) {
	fx := buildFixture(t, 91, 30, 30)
	table, err := NewTable(fx.models, fx.pools)
	if err != nil {
		t.Fatal(err)
	}
	reference := func(poolModel int, frame *synth.Frame, accept float64) []LabeledFrame {
		if evaluateFrame(fx.models[poolModel], frame).F1 < accept {
			return nil
		}
		var out []LabeledFrame
		for j, det := range fx.models {
			if f1 := evaluateFrame(det, frame).F1; f1 >= accept {
				out = append(out, LabeledFrame{Frame: frame, ModelIdx: j, F1: f1})
			}
		}
		return out
	}
	accepted := 0
	for _, accept := range []float64{0.3, 0.6} {
		for p, pool := range fx.pools {
			for k, frame := range pool.Frames {
				for poolModel := range fx.models {
					got := table.labels(p, k, poolModel, accept)
					want := reference(poolModel, frame, accept)
					if !sameLabels(got, want) {
						t.Fatalf("accept %v pool model %d: %+v, reference %+v", accept, poolModel, got, want)
					}
					accepted += len(got)
				}
			}
		}
	}
	if accepted == 0 {
		t.Fatal("no probe was accepted; the comparison covered nothing")
	}
}

// sameLabels reports whether two label lists are equal element by
// element, F1 compared by bits.
func sameLabels(a, b []LabeledFrame) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Frame != b[i].Frame || a[i].ModelIdx != b[i].ModelIdx ||
			math.Float64bits(a[i].F1) != math.Float64bits(b[i].F1) {
			return false
		}
	}
	return true
}

// acceptedLabels is the per-probe test the count table replaced: score the
// probing pool's model on the one frame from its decoded per-cell
// predictions, and on acceptance score every other model on it too.
func acceptedLabels(models []*detect.Detector, poolModel int, frame *synth.Frame, accept float64) []LabeledFrame {
	score := func(det *detect.Detector) float64 {
		return detect.ScorePredictions(det.DetectFrame(nil, frame), frame).F1
	}
	gate := score(models[poolModel])
	if gate < accept {
		return nil
	}
	var out []LabeledFrame
	for j, det := range models {
		f1 := gate
		if j != poolModel {
			f1 = score(det)
		}
		if f1 >= accept {
			out = append(out, LabeledFrame{Frame: frame, ModelIdx: j, F1: f1})
		}
	}
	return out
}

// refAdaptive is Adaptive scoring each probe as it is drawn, with
// acceptedLabels.
func refAdaptive(models []*detect.Detector, pools []Pool, cfg Config) Result {
	cfg.setDefaults()
	n := len(pools)
	alpha := make([]float64, n)
	beta := make([]float64, n)
	for i := range alpha {
		alpha[i], beta[i] = 1, 1
	}
	bounds := make([]float64, n)
	for i, p := range pools {
		bounds[i] = WellSampledBound(len(p.Frames), cfg.Theta)
	}
	res := Result{Counts: make([]int, n)}
	accepted := 0
	for res.Rounds = 0; res.Rounds < cfg.MaxRounds && accepted < cfg.Kappa; res.Rounds++ {
		best, bestDraw := -1, -1.0
		for i := range pools {
			if float64(res.Counts[i]) > bounds[i] {
				continue
			}
			if draw := cfg.RNG.Beta(alpha[i], beta[i]); draw > bestDraw {
				best, bestDraw = i, draw
			}
		}
		if best < 0 {
			break
		}
		pool := pools[best]
		frame := pool.Frames[cfg.RNG.Intn(len(pool.Frames))]
		res.Counts[best]++
		if labels := acceptedLabels(models, pool.ModelIdx, frame, cfg.AcceptF1); len(labels) > 0 {
			res.Samples = append(res.Samples, labels...)
			accepted++
		}
		for i := range pools {
			if i == best {
				beta[i]++
			} else {
				alpha[i]++
			}
		}
	}
	return res
}

// refRandom is Random scoring each probe as it is drawn, with
// acceptedLabels.
func refRandom(models []*detect.Detector, pools []Pool, cfg Config) Result {
	cfg.setDefaults()
	weights := make([]float64, len(pools))
	for i, p := range pools {
		weights[i] = float64(len(p.Frames))
	}
	res := Result{Counts: make([]int, len(pools))}
	accepted := 0
	for res.Rounds = 0; res.Rounds < cfg.MaxRounds && accepted < cfg.Kappa; res.Rounds++ {
		i := cfg.RNG.Categorical(weights)
		pool := pools[i]
		frame := pool.Frames[cfg.RNG.Intn(len(pool.Frames))]
		res.Counts[i]++
		if labels := acceptedLabels(models, pool.ModelIdx, frame, cfg.AcceptF1); len(labels) > 0 {
			res.Samples = append(res.Samples, labels...)
			accepted++
		}
	}
	return res
}

// TestSamplersMatchPerProbeReference checks Adaptive and Random, which
// look probes up in the count table, against the per-probe reference, both
// as package functions and as methods of one Table shared by every run:
// the whole Result — every sample with its F1 bits, the counts and the
// rounds — must be equal. The 100 distinct frames span two table
// chunks, and the pools share frames: pool 2 is drawn from
// both other pools' frames, and pool 3 repeats pool 0 for model 2, so a
// frame is probed through several pools and models. The runs cover a
// MaxRounds that stops the loop first, a Kappa reached mid-run, and a
// run that ends with every pool well sampled.
func TestSamplersMatchPerProbeReference(t *testing.T) {
	fx := buildFixture(t, 93, 70, 30)
	a, b := fx.pools[0].Frames, fx.pools[1].Frames
	var mixed []*synth.Frame
	for i := 0; i < 12; i++ {
		mixed = append(mixed, a[2*i], b[i])
	}
	rng := xrand.New(94)
	third := detect.NewDetector("C", detect.Compressed, 8, rng)
	if err := third.Train(mixed, nil, detect.TrainConfig{Epochs: 6, RNG: rng}); err != nil {
		t.Fatal(err)
	}
	models := append(append([]*detect.Detector(nil), fx.models...), third)
	pools := append(append([]Pool(nil), fx.pools...), Pool{ModelIdx: 2, Frames: mixed}, Pool{ModelIdx: 2, Frames: a})

	// Every run also goes through one Table shared by both samplers and
	// all runs, as RunFig3 uses it.
	table, err := NewTable(models, pools)
	if err != nil {
		t.Fatal(err)
	}
	type sampler struct {
		name   string
		run    func([]*detect.Detector, []Pool, Config) (Result, error)
		shared func(*Table, Config) Result
		ref    func([]*detect.Detector, []Pool, Config) Result
	}
	samplers := []sampler{{"adaptive", Adaptive, (*Table).Adaptive, refAdaptive}, {"random", Random, (*Table).Random, refRandom}}
	configs := map[string]Config{
		"max-rounds":   {Kappa: 1000, MaxRounds: 25, AcceptF1: 0.3},
		"kappa":        {Kappa: 15, MaxRounds: 1000, AcceptF1: 0.3},
		"well-sampled": {Kappa: 100000, MaxRounds: 5000, AcceptF1: 0.5},
	}
	for _, s := range samplers {
		for name, cfg := range configs {
			if s.name == "random" && name == "well-sampled" {
				continue // Random has no well-sampled stop
			}
			t.Run(s.name+"/"+name, func(t *testing.T) {
				cfg.RNG = xrand.New(95)
				got, err := s.run(models, pools, cfg)
				if err != nil {
					t.Fatal(err)
				}
				cfg.RNG = xrand.New(95)
				want := s.ref(models, pools, cfg)
				cfg.RNG = xrand.New(95)
				shared := s.shared(table, cfg)
				for form, got := range map[string]Result{"per-call table": got, "shared table": shared} {
					if got.Rounds != want.Rounds || !slices.Equal(got.Counts, want.Counts) || !sameLabels(got.Samples, want.Samples) {
						t.Fatalf("%s: rounds %d counts %v %d samples, reference rounds %d counts %v %d samples",
							form, got.Rounds, got.Counts, len(got.Samples), want.Rounds, want.Counts, len(want.Samples))
					}
				}
				if len(want.Samples) == 0 {
					t.Fatal("no probe was accepted; the comparison covered nothing")
				}
				switch name {
				case "max-rounds":
					if want.Rounds != cfg.MaxRounds {
						t.Fatalf("ran %d rounds, want MaxRounds %d", want.Rounds, cfg.MaxRounds)
					}
				case "kappa":
					if want.Rounds >= cfg.MaxRounds {
						t.Fatalf("ran all %d rounds; Kappa %d should stop the run", want.Rounds, cfg.Kappa)
					}
				case "well-sampled":
					if want.Rounds >= cfg.MaxRounds {
						t.Fatalf("ran all %d rounds; the pools should be well sampled first", want.Rounds)
					}
				}
			})
		}
	}
}
