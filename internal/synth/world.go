package synth

import (
	"fmt"
	"math"

	"anole/internal/tensor"
	"anole/internal/xrand"
)

// Config parameterizes a World. The zero value is not usable; call
// DefaultConfig and override fields as needed.
type Config struct {
	// Seed is the root seed from which every transform, signature and
	// clip stream is derived.
	Seed uint64
	// GridW and GridH are the detection grid dimensions.
	GridW, GridH int
	// FeatDim is the per-cell feature dimensionality.
	FeatDim int
	// SceneShift scales the per-attribute appearance transforms. 0
	// removes scene conditioning entirely (the ablation A1 knob);
	// 1 is the default strength.
	SceneShift float64
	// NoiseStd is the per-feature observation noise.
	NoiseStd float64
	// ClutterStd is the magnitude of background clutter mixed into all
	// cells.
	ClutterStd float64
	// MaxObjects caps the number of objects in one frame.
	MaxObjects int
}

// DefaultConfig returns the parameters used by the experiment harness.
func DefaultConfig(seed uint64) Config {
	return Config{
		Seed:       seed,
		GridW:      8,
		GridH:      8,
		FeatDim:    8,
		SceneShift: 1.0,
		NoiseStd:   0.20,
		ClutterStd: 0.30,
		MaxObjects: 14,
	}
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	switch {
	case c.GridW <= 0 || c.GridH <= 0:
		return fmt.Errorf("synth: non-positive grid %dx%d", c.GridW, c.GridH)
	case c.FeatDim <= 0:
		return fmt.Errorf("synth: non-positive feature dim %d", c.FeatDim)
	case c.SceneShift < 0:
		return fmt.Errorf("synth: negative scene shift %v", c.SceneShift)
	case c.MaxObjects < 0:
		return fmt.Errorf("synth: negative max objects %d", c.MaxObjects)
	default:
		return nil
	}
}

// Cells returns the number of grid cells per frame.
func (c Config) Cells() int { return c.GridW * c.GridH }

// Object is one foreground object placed in a frame.
type Object struct {
	Cell  int     // grid cell index in [0, Cells)
	Class Class   // object class
	Size  float64 // relative footprint in cell units (used for Fig. 5d)
}

// Frame is one generated observation: a feature grid plus ground truth.
type Frame struct {
	// Scene is the semantic scene the frame was generated under.
	Scene Scene
	// Cells holds the feature grid, row-major, Cells()×FeatDim floats.
	Cells []float64
	// Brightness and Contrast are the frame-level illumination scalars
	// (Fig. 5a/5b statistics).
	Brightness float64
	Contrast   float64
	// Objects is the ground-truth object list.
	Objects []Object

	// Dataset, Clip and Index locate the frame within the corpus.
	Dataset DatasetID
	Clip    int
	Index   int

	featDim int
}

// Cell returns a read-only view of cell i's feature vector.
func (f *Frame) Cell(i int) tensor.Vector {
	return tensor.Vector(f.Cells[i*f.featDim : (i+1)*f.featDim])
}

// NumCells returns the number of grid cells in the frame.
func (f *Frame) NumCells() int {
	if f.featDim == 0 {
		return 0
	}
	return len(f.Cells) / f.featDim
}

// FeatDim returns the per-cell feature dimension.
func (f *Frame) FeatDim() int { return f.featDim }

// ObjectAt returns the object occupying cell i and true, or a zero Object
// and false.
func (f *Frame) ObjectAt(i int) (Object, bool) {
	for _, o := range f.Objects {
		if o.Cell == i {
			return o, true
		}
	}
	return Object{}, false
}

// AreaRatio returns the fraction of the grid area covered by objects, the
// Fig. 5(d) statistic.
func (f *Frame) AreaRatio() float64 {
	var area float64
	for _, o := range f.Objects {
		area += o.Size
	}
	n := f.NumCells()
	if n == 0 {
		return 0
	}
	ratio := area / float64(n)
	if ratio > 1 {
		ratio = 1
	}
	return ratio
}

// World owns the generative model: per-attribute appearance transforms,
// class signatures, and location backgrounds. A World is immutable after
// construction and safe for concurrent frame generation when each caller
// uses its own RNG stream.
type World struct {
	cfg Config

	// Per-attribute-value appearance perturbations; a scene's transform
	// composes one from each dimension.
	weatherRot  []*tensor.Matrix
	locationRot []*tensor.Matrix
	timeRot     []*tensor.Matrix
	weatherBias []tensor.Vector
	locBias     []tensor.Vector
	timeBias    []tensor.Vector

	// Per-attribute-value channel gains; a scene's gain is their
	// channel-wise product, so gains can flip sign across scenes (the
	// "headlights at night vs silhouettes by day" effect) — which is
	// what makes one global low-capacity detector insufficient.
	weatherGain []tensor.Vector
	locGain     []tensor.Vector
	timeGain    []tensor.Vector

	classSig []tensor.Vector // per-class base signature
	locBG    []tensor.Vector // per-location background pattern

	// Cached composed per-scene transform: out = A·(raw ⊙ g) + b.
	sceneA []*tensor.Matrix
	sceneB []tensor.Vector
	sceneG []tensor.Vector
}

// NewWorld constructs the generative model for cfg.
func NewWorld(cfg Config) (*World, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	w := &World{cfg: cfg}
	d := cfg.FeatDim
	rng := xrand.NewLabeled(cfg.Seed, "synth-world")

	makeRots := func(n int, scale float64) []*tensor.Matrix {
		ms := make([]*tensor.Matrix, n)
		for i := range ms {
			m := tensor.NewMatrix(d, d)
			for r := 0; r < d; r++ {
				for c := 0; c < d; c++ {
					v := scale * cfg.SceneShift * rng.Norm() / float64(d)
					if r == c {
						v += 1.0 / 3.0 // composed thrice ≈ identity
					}
					m.Set(r, c, v)
				}
			}
			ms[i] = m
		}
		return ms
	}
	makeBiases := func(n int, scale float64) []tensor.Vector {
		bs := make([]tensor.Vector, n)
		for i := range bs {
			b := tensor.NewVector(d)
			for j := range b {
				b[j] = scale * cfg.SceneShift * rng.Norm()
			}
			bs[i] = b
		}
		return bs
	}

	makeGains := func(n int, spread float64) []tensor.Vector {
		gs := make([]tensor.Vector, n)
		for i := range gs {
			g := tensor.NewVector(d)
			for j := range g {
				g[j] = 1 + float64(spread*cfg.SceneShift*rng.Norm())
			}
			gs[i] = g
		}
		return gs
	}

	w.weatherRot = makeRots(NumWeather, 1.1)
	w.locationRot = makeRots(NumLocation, 0.9)
	w.timeRot = makeRots(NumTime, 1.3)
	w.weatherBias = makeBiases(NumWeather, 0.30)
	w.locBias = makeBiases(NumLocation, 0.25)
	w.timeBias = makeBiases(NumTime, 0.40)
	w.weatherGain = makeGains(NumWeather, 0.80)
	w.locGain = makeGains(NumLocation, 0.60)
	w.timeGain = makeGains(NumTime, 1.00)

	w.classSig = make([]tensor.Vector, NumClasses)
	for c := range w.classSig {
		sig := tensor.NewVector(d)
		for j := range sig {
			sig[j] = rng.NormMS(0, 1.4)
		}
		w.classSig[c] = sig
	}
	w.locBG = make([]tensor.Vector, NumLocation)
	for l := range w.locBG {
		bg := tensor.NewVector(d)
		for j := range bg {
			bg[j] = rng.NormMS(0, 0.5)
		}
		w.locBG[l] = bg
	}

	// Compose and cache per-scene transforms as the sum of one
	// perturbation per attribute dimension. Each summand carries I/3 on
	// its diagonal, so A_scene ≈ I + shift-scaled noise; at SceneShift 0
	// every scene shares the identity transform and scene conditioning
	// vanishes (the A1 ablation).
	w.sceneA = make([]*tensor.Matrix, NumScenes)
	w.sceneB = make([]tensor.Vector, NumScenes)
	w.sceneG = make([]tensor.Vector, NumScenes)
	for idx := 0; idx < NumScenes; idx++ {
		s := SceneFromIndex(idx)
		sum := tensor.NewMatrix(d, d)
		sum.AddScaled(1, w.weatherRot[s.Weather])
		sum.AddScaled(1, w.locationRot[s.Location])
		sum.AddScaled(1, w.timeRot[s.Time])
		w.sceneA[idx] = sum
		b := tensor.NewVector(d)
		b.AddScaled(1, w.weatherBias[s.Weather])
		b.AddScaled(1, w.locBias[s.Location])
		b.AddScaled(1, w.timeBias[s.Time])
		w.sceneB[idx] = b
		g := tensor.NewVector(d)
		for j := 0; j < d; j++ {
			g[j] = w.weatherGain[s.Weather][j] * w.locGain[s.Location][j] * w.timeGain[s.Time][j]
		}
		// Scene-idiosyncratic appearance on top of the attribute
		// factors: real scene appearance is not attribute-decomposable,
		// and the idiosyncratic component is what forces a global model
		// to memorize per-scene inverses (capacity pressure) rather
		// than span a handful of shared attribute factors.
		srng := xrand.NewLabeled(cfg.Seed, "scene-idio-"+s.String())
		for j := 0; j < d; j++ {
			g[j] *= 1 + float64(0.35*cfg.SceneShift*srng.Norm())
			b[j] += float64(0.2 * cfg.SceneShift * srng.Norm())
		}
		w.sceneG[idx] = g
	}
	return w, nil
}

// Config returns the world's configuration.
func (w *World) Config() Config { return w.cfg }

// illumination returns the brightness and contrast scalars for a scene,
// with per-frame jitter from rng. Night frames are dim and low-contrast;
// fog crushes contrast; snow brightens. These drive both the Fig. 5
// statistics and detection difficulty (signal amplitude scales with
// contrast).
func (w *World) illumination(s Scene, rng *xrand.RNG) (brightness, contrast float64) {
	switch s.Time {
	case Daytime:
		brightness = rng.NormMS(0.70, 0.08)
	case DawnDusk:
		brightness = rng.NormMS(0.45, 0.08)
	case Night:
		brightness = rng.NormMS(0.20, 0.05)
	}
	contrast = brightness
	switch s.Weather {
	case Overcast:
		brightness -= 0.08
		contrast -= 0.05
	case Rainy:
		brightness -= 0.10
		contrast -= 0.10
	case Snowy:
		brightness += 0.10
		contrast -= 0.08
	case Foggy:
		contrast -= 0.18
	}
	if s.Location == Tunnel {
		brightness -= 0.12
		contrast -= 0.05
	}
	brightness = clamp01(brightness)
	contrast = clamp01(contrast + 0.28) // floor so objects are never invisible
	return brightness, contrast
}

// objectDensity returns the expected object count for a scene, before the
// dataset profile multiplier.
func objectDensity(l Location) float64 {
	switch l {
	case Highway:
		return 2.5
	case Urban:
		return 6.0
	case Residential:
		return 4.0
	case ParkingLot:
		return 5.5
	case Tunnel:
		return 2.0
	case GasStation:
		return 3.0
	case Bridge:
		return 3.0
	case TollBooth:
		return 3.5
	default:
		return 3.0
	}
}

// classMix returns per-class placement weights for a location: highways
// carry cars and trucks, residential areas pedestrians and cyclists.
func classMix(l Location) []float64 {
	switch l {
	case Highway, Bridge, TollBooth, Tunnel:
		return []float64{0.55, 0.02, 0.38, 0.05}
	case Urban:
		return []float64{0.45, 0.25, 0.10, 0.20}
	case Residential:
		return []float64{0.35, 0.35, 0.05, 0.25}
	case ParkingLot, GasStation:
		return []float64{0.60, 0.25, 0.10, 0.05}
	default:
		return []float64{0.5, 0.2, 0.15, 0.15}
	}
}

// GenerateFrame draws one frame of scene s using rng, with densityMul
// scaling the expected object count (dataset profiles use this).
func (w *World) GenerateFrame(s Scene, densityMul float64, rng *xrand.RNG) *Frame {
	d := w.cfg.FeatDim
	cells := w.cfg.Cells()
	f := &Frame{
		Scene:   s,
		Cells:   make([]float64, cells*d),
		featDim: d,
	}
	f.Brightness, f.Contrast = w.illumination(s, rng)

	// Object placement: approximately Poisson via binomial thinning.
	lambda := objectDensity(s.Location) * densityMul
	count := samplePoisson(lambda, rng)
	if count > w.cfg.MaxObjects {
		count = w.cfg.MaxObjects
	}
	if count > cells {
		count = cells
	}
	mix := classMix(s.Location)
	perm := rng.Perm(cells)
	sizeBase := 0.6
	if s.Location == Highway || s.Location == Bridge {
		sizeBase = 1.0 // closer, faster objects occupy more area
	}
	for i := 0; i < count; i++ {
		f.Objects = append(f.Objects, Object{
			Cell:  perm[i],
			Class: Class(rng.Categorical(mix)),
			Size:  clampPos(rng.NormMS(sizeBase, 0.25), 0.15, 1.8),
		})
	}

	// Feature synthesis per cell:
	//   raw = background(location) + clutter + contrast·size·signature
	//   obs = A_scene·(raw ⊙ g_scene) + b_scene + noise
	// The channel-wise gain g composes one factor per attribute value
	// and can flip sign across scenes, which is why a single
	// low-capacity detector cannot serve all scenes (Proposition 1's
	// world) while a per-scene specialist can.
	raw := tensor.NewVector(d)
	gains := w.sceneG[s.Index()]
	for cell := 0; cell < cells; cell++ {
		copy(raw, w.locBG[s.Location])
		for j := 0; j < d; j++ {
			raw[j] += float64(w.cfg.ClutterStd * rng.Norm())
		}
		if obj, ok := f.ObjectAt(cell); ok {
			amp := f.Contrast * obj.Size
			raw.AddScaled(amp, w.classSig[obj.Class])
		}
		for j := 0; j < d; j++ {
			raw[j] *= gains[j]
		}
		out := tensor.Vector(f.Cells[cell*d : (cell+1)*d])
		w.sceneA[s.Index()].MulVec(out, raw)
		out.AddScaled(1, w.sceneB[s.Index()])
		for j := 0; j < d; j++ {
			out[j] += float64(w.cfg.NoiseStd * rng.Norm())
		}
	}
	return f
}

func samplePoisson(lambda float64, rng *xrand.RNG) int {
	if lambda <= 0 {
		return 0
	}
	// Knuth's method is fine for the small lambdas used here.
	l := math.Exp(-lambda)
	k := 0
	p := 1.0
	for {
		p *= rng.Float64()
		if p <= l {
			return k
		}
		k++
		if k > 1000 {
			return k
		}
	}
}

func clamp01(x float64) float64 {
	if x < 0 {
		return 0
	}
	if x > 1 {
		return 1
	}
	return x
}

func clampPos(x, lo, hi float64) float64 {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}
