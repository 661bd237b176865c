package tensor

import (
	"fmt"
	"math"
)

// This file holds the nearest-point kernel behind the novelty score
// (core's scene centroids): the smallest squared Euclidean distance
// from a vector to any point of a fixed set.
//
// PackPoints copies the set once into a dimension-major layout with
// one lane per point: coordinate e of point j sits at
// data[e·stride + j], stride the point count rounded up to a multiple
// of 8, the padding lanes NaN. Every form gives the bits of
// nearestGeneric, the portable Go loop: each point's distance sums
// (v[e] − p[e])², rounded before the add, in ascending e from +0, and
// the minimum folds `d < min` in point order from +Inf. On amd64 an
// assembly loop computes eight points' distances per step in one
// 512-bit register with AVX-512F, four per 256-bit register with AVX2
// (nearest_amd64.s), subtracting, multiplying and adding lane by lane,
// never fused, and keeps a running minimum per lane. A padding lane's
// distance is NaN and never below the minimum. The distances are never
// −0 (a sum from +0 of squares), and a NaN distance is never below the
// minimum, so the minimum is the smallest non-NaN distance whatever
// order it folds in, and the per-lane minima fold to the same bits.
//
// The early-exit scan of Vector.SquaredDistanceBelow returns the same
// minimum: a partial sum it abandons is not below the minimum, and
// neither is the full sum, which is no smaller, or NaN.

// pointLanes is the lane multiple of a PackedPoints stride: one
// 512-bit vector of float64, or two 256-bit ones.
const pointLanes = 8

// PackedPoints is a set of n points of one dimension laid out for
// MinSquaredDistance. It is immutable once packed, so any number of
// goroutines may read it at once.
type PackedPoints struct {
	n, dim, stride int
	data           []float64 // dim × stride, padding lanes NaN
}

// PackPoints packs points, which must all have the same length, for
// MinSquaredDistance.
func PackPoints(points []Vector) *PackedPoints {
	p := &PackedPoints{n: len(points)}
	if len(points) == 0 {
		return p
	}
	p.dim = len(points[0])
	p.stride = (len(points) + pointLanes - 1) / pointLanes * pointLanes
	p.data = make([]float64, p.dim*p.stride)
	for i := range p.data {
		p.data[i] = math.NaN()
	}
	for j, pt := range points {
		if len(pt) != p.dim {
			panic(fmt.Sprintf("tensor: packing a %d-value point among %d-value points", len(pt), p.dim))
		}
		for e, x := range pt {
			p.data[e*p.stride+j] = x
		}
	}
	return p
}

// MinSquaredDistance returns the smallest v.SquaredDistance(q) over
// the points q, ignoring NaN distances, or +Inf when there is none. It
// panics when v's length is not the points' dimension, and allocates
// nothing.
func (p *PackedPoints) MinSquaredDistance(v Vector) float64 {
	if p.n == 0 {
		return math.Inf(1)
	}
	if len(v) != p.dim {
		panic(fmt.Sprintf("tensor: distance from a %d-value vector to %d-value points", len(v), p.dim))
	}
	switch {
	case haveAVX512:
		return nearestAVX512(v, p.data, p.dim, p.stride)
	case haveAVX2:
		return nearestAVX2(v, p.data, p.dim, p.stride)
	default:
		return nearestGeneric(v, p.data, p.n, p.dim, p.stride)
	}
}

// nearestGeneric is the portable kernel and the reference every other
// form is pinned against: four points' distances at a time in local
// accumulators, then one at a time, each folded into the minimum in
// point order.
func nearestGeneric(v, data []float64, n, dim, stride int) float64 {
	min := math.Inf(1)
	j := 0
	for ; j+4 <= n; j += 4 {
		var s0, s1, s2, s3 float64
		for e, x := range v[:dim] {
			q := data[e*stride+j : e*stride+j+4 : e*stride+j+4]
			d0, d1, d2, d3 := x-q[0], x-q[1], x-q[2], x-q[3]
			s0 += float64(d0 * d0)
			s1 += float64(d1 * d1)
			s2 += float64(d2 * d2)
			s3 += float64(d3 * d3)
		}
		for _, s := range [4]float64{s0, s1, s2, s3} {
			if s < min {
				min = s
			}
		}
	}
	for ; j < n; j++ {
		var s float64
		for e, x := range v[:dim] {
			d := x - data[e*stride+j]
			s += float64(d * d)
		}
		if s < min {
			min = s
		}
	}
	return min
}
