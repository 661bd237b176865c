package tensor

import (
	"fmt"
	"math"
)

// This file holds the column-moments kernel behind the frame
// descriptor (synth.FrameFeatureInto): each column's mean and standard
// deviation over the rows of a row-major matrix, for one matrix or for
// several of one shape at once.
//
// Every form gives the bits of momentsGeneric, the portable Go loops:
// each column sums its rows in ascending order from +0 and scales the
// sum by inv = 1/rows; the deviation sums each row's squared distance
// from that mean, (x − mean)², rounded before the add, in ascending row
// order from +0, scales the sum by the same inv and takes its square
// root. On amd64 an assembly loop runs one lane per column instead of
// one column at a time (moments_amd64.s): with AVX-512F eight columns
// per 512-bit register, with AVX2 four per 256-bit register, a masked
// last group for the columns left over. It subtracts, multiplies, adds
// and takes square roots lane by lane, never fused, so each lane
// repeats the Go loop's operations in its order. Four matrices of one
// shape run through one call of the four-matrix form, whose add chains
// interleave; a lone matrix (a one-frame decide block, or the tail of a
// block) runs through the one-matrix form.

// Moments names one matrix whose column moments ColumnMomentsInto
// computes: X holds its rows×cols values row-major, Mean (cols values)
// receives each column's mean and Std (cols values, or empty) each
// column's population standard deviation.
type Moments struct {
	Mean, Std, X []float64
}

// momentsGroup is how many matrices one call of the interleaved kernel
// form reads.
const momentsGroup = 4

// ColumnMomentsInto computes the column means, and the column standard
// deviations where Std is not empty, of every rows×cols matrix in
// jobs. Std must be empty in every job or in none. A matrix of no rows
// has every mean and deviation +0. It allocates nothing.
func ColumnMomentsInto(jobs []Moments, rows, cols int) {
	if len(jobs) == 0 || cols == 0 {
		return
	}
	withStd := len(jobs[0].Std) > 0
	for i := range jobs {
		j := &jobs[i]
		if len(j.Mean) != cols || len(j.X) < rows*cols || (len(j.Std) > 0) != withStd || (withStd && len(j.Std) != cols) {
			panic(fmt.Sprintf("tensor: column moments of a %dx%d matrix into %d means and %d deviations from %d values",
				rows, cols, len(j.Mean), len(j.Std), len(j.X)))
		}
	}
	if rows == 0 {
		for i := range jobs {
			clear(jobs[i].Mean)
			clear(jobs[i].Std)
		}
		return
	}
	inv := 1 / float64(rows)
	k := 0
	switch {
	case haveAVX512:
		for ; k+momentsGroup <= len(jobs); k += momentsGroup {
			moments4AVX512((*[momentsGroup]Moments)(jobs[k:]), rows, cols, inv)
		}
		for ; k < len(jobs); k++ {
			momentsAVX512(&jobs[k], rows, cols, inv)
		}
	case haveAVX2:
		for ; k+momentsGroup <= len(jobs); k += momentsGroup {
			moments4AVX2((*[momentsGroup]Moments)(jobs[k:]), rows, cols, inv)
		}
		for ; k < len(jobs); k++ {
			momentsAVX2(&jobs[k], rows, cols, inv)
		}
	default:
		for ; k < len(jobs); k++ {
			momentsGeneric(&jobs[k], rows, cols, inv)
		}
	}
}

// momentsGroupCols is how many columns momentsGeneric sums per pass
// over the rows, in local accumulators.
const momentsGroupCols = 4

// momentsGeneric is the portable kernel and the reference every other
// form is pinned against: momentsGroupCols columns per pass over the
// rows, then one at a time, each summed in ascending row order from +0.
// rows must be positive.
func momentsGeneric(m *Moments, rows, cols int, inv float64) {
	xs, n := m.X, rows*cols
	mean := m.Mean
	j := 0
	for ; j+momentsGroupCols <= cols; j += momentsGroupCols {
		var s0, s1, s2, s3 float64
		for off := j; off < n; off += cols {
			x := xs[off : off+momentsGroupCols : off+momentsGroupCols]
			s0 += x[0]
			s1 += x[1]
			s2 += x[2]
			s3 += x[3]
		}
		mean[j], mean[j+1], mean[j+2], mean[j+3] = s0*inv, s1*inv, s2*inv, s3*inv
	}
	for ; j < cols; j++ {
		var s float64
		for off := j; off < n; off += cols {
			s += xs[off]
		}
		mean[j] = s * inv
	}
	std := m.Std
	if len(std) == 0 {
		return
	}
	j = 0
	for ; j+momentsGroupCols <= cols; j += momentsGroupCols {
		m0, m1, m2, m3 := mean[j], mean[j+1], mean[j+2], mean[j+3]
		var s0, s1, s2, s3 float64
		for off := j; off < n; off += cols {
			x := xs[off : off+momentsGroupCols : off+momentsGroupCols]
			e0, e1, e2, e3 := x[0]-m0, x[1]-m1, x[2]-m2, x[3]-m3
			s0 += float64(e0 * e0)
			s1 += float64(e1 * e1)
			s2 += float64(e2 * e2)
			s3 += float64(e3 * e3)
		}
		std[j] = math.Sqrt(s0 * inv)
		std[j+1] = math.Sqrt(s1 * inv)
		std[j+2] = math.Sqrt(s2 * inv)
		std[j+3] = math.Sqrt(s3 * inv)
	}
	for ; j < cols; j++ {
		m := mean[j]
		var s float64
		for off := j; off < n; off += cols {
			e := xs[off] - m
			s += float64(e * e)
		}
		std[j] = math.Sqrt(s * inv)
	}
}
