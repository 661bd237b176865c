package tensor

import (
	"fmt"
	"math"
	"testing"

	"anole/internal/xrand"
)

// momentsForm is one form of the column-moments kernel: its one-matrix
// and four-matrix entries, called directly rather than through the
// dispatch.
type momentsForm struct {
	one  func(m *Moments, rows, cols int, inv float64)
	four func(m *[momentsGroup]Moments, rows, cols int, inv float64)
}

// momentsKernels lists the column-moments forms this CPU can run. The
// portable form has no four-matrix entry of its own: ColumnMomentsInto
// runs it one matrix at a time.
func momentsKernels() map[string]momentsForm {
	ks := map[string]momentsForm{"generic": {momentsGeneric, func(m *[momentsGroup]Moments, rows, cols int, inv float64) {
		for i := range m {
			momentsGeneric(&m[i], rows, cols, inv)
		}
	}}}
	if haveAVX2 {
		ks["avx2"] = momentsForm{momentsAVX2, moments4AVX2}
	}
	if haveAVX512 {
		ks["avx512"] = momentsForm{momentsAVX512, moments4AVX512}
	}
	return ks
}

// naiveMoments is the column moments as a row-major loop computes them:
// every column's sum and squared deviation accumulate in the output,
// one row at a time, the sums scaled by 1/rows and the deviations
// square-rooted at the end.
func naiveMoments(x []float64, rows, cols int) (mean, std []float64) {
	mean, std = make([]float64, cols), make([]float64, cols)
	if rows == 0 {
		return mean, std
	}
	for r := 0; r < rows; r++ {
		for j, v := range x[r*cols : (r+1)*cols] {
			mean[j] += v
		}
	}
	inv := 1 / float64(rows)
	for j := range mean {
		mean[j] *= inv
	}
	for r := 0; r < rows; r++ {
		for j, v := range x[r*cols : (r+1)*cols] {
			e := v - mean[j]
			std[j] += float64(e * e)
		}
	}
	for j := range std {
		std[j] = math.Sqrt(std[j] * inv)
	}
	return mean, std
}

func sameVector(t *testing.T, got, want []float64, label string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d values, want %d", label, len(got), len(want))
	}
	for i, w := range want {
		if !sameBits(got[i], w) {
			t.Fatalf("%s: element %d = %v (%#x), want %v (%#x)", label, i,
				got[i], math.Float64bits(got[i]), w, math.Float64bits(w))
		}
	}
}

// TestMomentsKernelsMatchNaive runs every column-moments form, the
// one-matrix and the four-matrix entry, against the row-major loop,
// bit for bit: 1, 7 and 64 rows, 1–17 columns (every tail of an 8-lane
// and of a 4-lane group, alone and after whole groups), with and
// without deviations, NaN, ±Inf and ±0 injected into each matrix.
// Every matrix ends where an unreadable page begins, and so does every
// mean and deviation row, so a kernel that reads or writes one lane
// past an operand faults; the outputs start poisoned.
func TestMomentsKernelsMatchNaive(t *testing.T) {
	rng := xrand.New(34)
	for _, rows := range []int{1, 7, 64} {
		for cols := 1; cols <= 17; cols++ {
			var xs [momentsGroup][]float64
			for i := range xs {
				xs[i] = randMatrix(rng, rows, cols).Data
				injectSpecial(rng, xs[i], uint8(rng.Intn(4)))
			}
			for _, withStd := range []bool{true, false} {
				for name, form := range momentsKernels() {
					var g guardPages
					var jobs [momentsGroup]Moments
					poison := make([]float64, cols)
					for i := range poison {
						poison[i] = 12345
					}
					for i := range jobs {
						jobs[i] = Moments{Mean: g.copy(t, poison), X: g.copy(t, xs[i])}
						if withStd {
							jobs[i].Std = g.copy(t, poison)
						}
					}
					label := fmt.Sprintf("%s %dx%d std=%v", name, rows, cols, withStd)
					inv := 1 / float64(rows)
					callNoFault(t, label, func() {
						form.four(&jobs, rows, cols, inv)
					})
					single := Moments{Mean: g.copy(t, poison), X: g.copy(t, xs[0])}
					if withStd {
						single.Std = g.copy(t, poison)
					}
					callNoFault(t, label, func() { form.one(&single, rows, cols, inv) })
					for i, j := range append(jobs[:], single) {
						mean, std := naiveMoments(xs[i%momentsGroup], rows, cols)
						sameVector(t, j.Mean, mean, fmt.Sprintf("%s matrix %d mean", label, i))
						if withStd {
							sameVector(t, j.Std, std, fmt.Sprintf("%s matrix %d deviation", label, i))
						}
					}
					g.free()
				}
			}
		}
	}
}

// TestColumnMomentsInto pins the entry: any number of matrices (the
// four-matrix form on each whole group, the one-matrix form on the
// rest) equals the row-major loop, a matrix of no rows gives +0
// everywhere, and mismatched operands panic.
func TestColumnMomentsInto(t *testing.T) {
	rng := xrand.New(35)
	for _, rows := range []int{0, 1, 7, 64} {
		for _, n := range []int{1, 3, 4, 5, 9} {
			const cols = 8
			jobs := make([]Moments, n)
			for i := range jobs {
				jobs[i] = Moments{Mean: NewVector(cols), Std: NewVector(cols), X: randMatrix(rng, rows, cols).Data}
				Vector(jobs[i].Mean).Fill(math.NaN())
				Vector(jobs[i].Std).Fill(math.NaN())
			}
			ColumnMomentsInto(jobs, rows, cols)
			for i, j := range jobs {
				mean, std := naiveMoments(j.X, rows, cols)
				label := fmt.Sprintf("%d rows, matrix %d of %d", rows, i, n)
				sameVector(t, j.Mean, mean, label+" mean")
				sameVector(t, j.Std, std, label+" deviation")
			}
		}
	}
	x := NewVector(8)
	mustPanic(t, "short mean", func() { ColumnMomentsInto([]Moments{{Mean: NewVector(3), X: x}}, 2, 4) })
	mustPanic(t, "short matrix", func() { ColumnMomentsInto([]Moments{{Mean: NewVector(4), X: x}}, 3, 4) })
	mustPanic(t, "mixed deviations", func() {
		ColumnMomentsInto([]Moments{{Mean: NewVector(4), Std: NewVector(4), X: x}, {Mean: NewVector(4), X: x}}, 2, 4)
	})
}

// TestColumnMomentsIntoZeroAllocs pins the kernel's allocation
// contract: with held operands it allocates nothing, in either form.
func TestColumnMomentsIntoZeroAllocs(t *testing.T) {
	rng := xrand.New(36)
	jobs := make([]Moments, 5)
	for i := range jobs {
		jobs[i] = Moments{Mean: NewVector(8), Std: NewVector(8), X: randMatrix(rng, 64, 8).Data}
	}
	if allocs := testing.AllocsPerRun(100, func() { ColumnMomentsInto(jobs, 64, 8) }); allocs != 0 {
		t.Fatalf("ColumnMomentsInto: %v allocs/op, want 0", allocs)
	}
}

// BenchmarkColumnMoments times the frame descriptor's shape, 64 rows of
// 8 columns with deviations, one matrix per call and sixteen (a decide
// block) per call.
func BenchmarkColumnMoments(b *testing.B) {
	rng := xrand.New(37)
	for _, n := range []int{1, 16} {
		jobs := make([]Moments, n)
		for i := range jobs {
			jobs[i] = Moments{Mean: NewVector(8), Std: NewVector(8), X: randMatrix(rng, 64, 8).Data}
		}
		b.Run(fmt.Sprintf("matrices=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				ColumnMomentsInto(jobs, 64, 8)
			}
		})
	}
}
