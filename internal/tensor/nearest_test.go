package tensor

import (
	"fmt"
	"math"
	"testing"

	"anole/internal/xrand"
)

// nearestKernels lists the nearest-point forms this CPU can run, called
// directly rather than through the dispatch, each over a packed set's
// operands.
func nearestKernels() map[string]func(v, data []float64, n, dim, stride int) float64 {
	ks := map[string]func(v, data []float64, n, dim, stride int) float64{"generic": nearestGeneric}
	if haveAVX2 {
		ks["avx2"] = func(v, data []float64, _, dim, stride int) float64 { return nearestAVX2(v, data, dim, stride) }
	}
	if haveAVX512 {
		ks["avx512"] = func(v, data []float64, _, dim, stride int) float64 { return nearestAVX512(v, data, dim, stride) }
	}
	return ks
}

// earlyExitNearest is the scan the kernel stands in for: each point's
// SquaredDistanceBelow the minimum so far, kept when below it.
func earlyExitNearest(v Vector, points []Vector) float64 {
	min := math.Inf(1)
	for _, q := range points {
		if d := v.SquaredDistanceBelow(q, min); d < min {
			min = d
		}
	}
	return min
}

// TestNearestKernelsMatchEarlyExit runs every nearest-point form
// against the early-exit scan, bit for bit: 1–17, 48 and 49 points
// (every tail of an 8-lane and of a 4-lane block, alone and after whole
// blocks), dimensions 0, 1, 3, 16 and 17, NaN, ±Inf and ±0 injected
// into the points and the vector, with some points duplicated so that
// distances tie. The vector and the packed coordinates end where an
// unreadable page begins, so a kernel that reads past either faults.
func TestNearestKernelsMatchEarlyExit(t *testing.T) {
	rng := xrand.New(38)
	counts := []int{48, 49}
	for n := 1; n <= 17; n++ {
		counts = append(counts, n)
	}
	for _, n := range counts {
		for _, dim := range []int{0, 1, 3, 16, 17} {
			for trial := 0; trial < 4; trial++ {
				points := make([]Vector, n)
				for j := range points {
					points[j] = randMatrix(rng, 1, dim).Data
					if j > 0 && rng.Intn(4) == 0 {
						copy(points[j], points[rng.Intn(j)])
					}
				}
				v := Vector(randMatrix(rng, 1, dim).Data)
				special := uint8(trial)
				for _, q := range points {
					if rng.Intn(3) == 0 {
						injectSpecial(rng, q, special)
					}
				}
				if trial == 3 {
					injectSpecial(rng, v, special)
				}
				want := earlyExitNearest(v, points)
				p := PackPoints(points)
				if got := p.MinSquaredDistance(v); !sameBits(got, want) {
					t.Fatalf("MinSquaredDistance %d points of dim %d: %v, want %v", n, dim, got, want)
				}
				var g guardPages
				gv, gd := g.copy(t, v), g.copy(t, p.data)
				for name, kernel := range nearestKernels() {
					label := fmt.Sprintf("%s %d points of dim %d, trial %d", name, n, dim, trial)
					var got float64
					callNoFault(t, label, func() { got = kernel(gv, gd, p.n, dim, p.stride) })
					if !sameBits(got, want) {
						t.Fatalf("%s: %v (%#x), want %v (%#x)", label, got, math.Float64bits(got), want, math.Float64bits(want))
					}
				}
				g.free()
			}
		}
	}
}

// TestNearestNoFiniteDistance pins the edges: with every distance NaN
// (a NaN vector) or no points the minimum is +Inf, an infinite
// coordinate gives +Inf distances that still beat NaN ones, and a
// vector of the wrong length panics.
func TestNearestNoFiniteDistance(t *testing.T) {
	points := []Vector{{1, 2}, {3, 4}, {5, 6}}
	p := PackPoints(points)
	for name, kernel := range nearestKernels() {
		if got := kernel([]float64{math.NaN(), 0}, p.data, p.n, p.dim, p.stride); !math.IsInf(got, 1) {
			t.Fatalf("%s: NaN vector gives %v, want +Inf", name, got)
		}
		if got := kernel([]float64{math.Inf(1), 0}, p.data, p.n, p.dim, p.stride); !math.IsInf(got, 1) {
			t.Fatalf("%s: infinite vector gives %v, want +Inf", name, got)
		}
	}
	if got := PackPoints(nil).MinSquaredDistance(Vector{1, 2}); !math.IsInf(got, 1) {
		t.Fatalf("no points: %v, want +Inf", got)
	}
	mustPanic(t, "short vector", func() { p.MinSquaredDistance(Vector{1}) })
	mustPanic(t, "ragged points", func() { PackPoints([]Vector{{1, 2}, {3}}) })
}

// TestMinSquaredDistanceZeroAllocs pins the kernel's allocation
// contract: a packed set answers without allocating.
func TestMinSquaredDistanceZeroAllocs(t *testing.T) {
	rng := xrand.New(39)
	points := make([]Vector, 12)
	for j := range points {
		points[j] = randMatrix(rng, 1, 16).Data
	}
	p, v := PackPoints(points), Vector(randMatrix(rng, 1, 16).Data)
	if allocs := testing.AllocsPerRun(100, func() { p.MinSquaredDistance(v) }); allocs != 0 {
		t.Fatalf("MinSquaredDistance: %v allocs/op, want 0", allocs)
	}
}

// BenchmarkMinSquaredDistance times the novelty score's shape, a
// 16-value embedding against 12 centroids, packed and as the early-exit
// scan.
func BenchmarkMinSquaredDistance(b *testing.B) {
	rng := xrand.New(40)
	points := make([]Vector, 12)
	for j := range points {
		points[j] = randMatrix(rng, 1, 16).Data
	}
	p, v := PackPoints(points), Vector(randMatrix(rng, 1, 16).Data)
	b.Run("packed", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			p.MinSquaredDistance(v)
		}
	})
	b.Run("early-exit", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			earlyExitNearest(v, points)
		}
	})
}
