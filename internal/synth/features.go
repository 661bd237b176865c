package synth

import (
	"math"

	"anole/internal/tensor"
)

// FrameFeatureDim returns the dimensionality of FrameFeature's output for
// a world with per-cell feature dimension d: mean and standard deviation
// per feature channel plus brightness and contrast.
func FrameFeatureDim(featDim int) int { return 2*featDim + 2 }

// FrameFeature computes the frame-level descriptor consumed by M_scene:
// channel-wise mean and standard deviation pooled over all cells, plus the
// frame's brightness and contrast scalars. This is the stand-in for the
// paper's ResNet18 global image features.
func FrameFeature(f *Frame) tensor.Vector {
	return FrameFeatureInto(nil, f)
}

// FrameFeatureInto computes the frame descriptor into dst (allocating
// only when dst is nil or mis-sized) and returns dst. This is the
// batched runtime path: with a reused dst — typically one row of a
// batch staging matrix — the descriptor step performs no heap
// allocations.
func FrameFeatureInto(dst tensor.Vector, f *Frame) tensor.Vector {
	d := f.FeatDim()
	cells := f.NumCells()
	out := dst
	if len(out) != FrameFeatureDim(d) {
		out = tensor.NewVector(FrameFeatureDim(d))
	}
	if cells == 0 {
		out.Fill(0)
		return out
	}
	mean := ChannelMeansInto(out[:d], f)
	std := out[d : 2*d]
	xs, n := f.Cells, cells*d
	inv := 1 / float64(cells)
	// The squared deviations accumulate like the means: channelGroup
	// channels per pass, each in ascending cell order.
	j := 0
	for ; j+channelGroup <= d; j += channelGroup {
		m0, m1, m2, m3 := mean[j], mean[j+1], mean[j+2], mean[j+3]
		var s0, s1, s2, s3 float64
		for off := j; off < n; off += d {
			x := xs[off : off+channelGroup : off+channelGroup]
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
	for ; j < d; j++ {
		m := mean[j]
		var s float64
		for off := j; off < n; off += d {
			e := xs[off] - m
			s += float64(e * e)
		}
		std[j] = math.Sqrt(s * inv)
	}
	out[2*d] = f.Brightness
	out[2*d+1] = f.Contrast
	return out
}

// channelGroup is how many channels ChannelMeansInto and
// FrameFeatureInto sum per pass over the cells, in local accumulators.
const channelGroup = 4

// ChannelMeansInto computes the frame's per-channel feature means — the
// first FeatDim entries of FrameFeature — into dst (allocating only
// when dst is mis-sized) and returns dst. It is the part of the
// descriptor a detector reads. Each channel sums its cells in ascending
// order from +0, channelGroup channels per pass, then scales by
// 1/cells.
func ChannelMeansInto(dst tensor.Vector, f *Frame) tensor.Vector {
	d := f.FeatDim()
	if len(dst) != d {
		dst = tensor.NewVector(d)
	}
	cells := f.NumCells()
	if cells == 0 {
		dst.Fill(0)
		return dst
	}
	xs, n := f.Cells, cells*d
	inv := 1 / float64(cells)
	j := 0
	for ; j+channelGroup <= d; j += channelGroup {
		var s0, s1, s2, s3 float64
		for off := j; off < n; off += d {
			x := xs[off : off+channelGroup : off+channelGroup]
			s0 += x[0]
			s1 += x[1]
			s2 += x[2]
			s3 += x[3]
		}
		dst[j], dst[j+1], dst[j+2], dst[j+3] = s0*inv, s1*inv, s2*inv, s3*inv
	}
	for ; j < d; j++ {
		var s float64
		for off := j; off < n; off += d {
			s += xs[off]
		}
		dst[j] = s * inv
	}
	return dst
}

// CellInputDim returns the dimensionality of CellInput's output: the cell
// features, the frame's channel means (global context), and the
// brightness/contrast scalars.
func CellInputDim(featDim int) int { return 2*featDim + 2 }

// CellInput builds the detector input for one cell: local features
// concatenated with global context. ctx must be the frame's FrameFeature
// (reused across cells to avoid recomputing the pooling); dst is reused
// when correctly sized.
func CellInput(dst tensor.Vector, f *Frame, cell int, ctx tensor.Vector) tensor.Vector {
	d := f.FeatDim()
	n := CellInputDim(d)
	if len(dst) != n {
		dst = tensor.NewVector(n)
	}
	copy(dst[:d], f.Cell(cell))
	copy(dst[d:2*d], ctx[:d]) // channel means
	dst[2*d] = f.Brightness
	dst[2*d+1] = f.Contrast
	return dst
}

// CellTarget builds the detector training target for one cell: element 0
// is objectness, elements 1..NumClasses are one-hot class indicators
// (all zero for background cells).
func CellTarget(dst tensor.Vector, f *Frame, cell int) tensor.Vector {
	n := 1 + NumClasses
	if len(dst) != n {
		dst = tensor.NewVector(n)
	}
	dst.Fill(0)
	if obj, ok := f.ObjectAt(cell); ok {
		dst[0] = 1
		dst[1+int(obj.Class)] = 1
	}
	return dst
}

// DetectorOutDim is the per-cell detector head output size.
const DetectorOutDim = 1 + NumClasses
