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
	} else {
		out.Fill(0)
	}
	if cells == 0 {
		return out
	}
	mean := ChannelMeansInto(out[:d], f)
	std := out[d : 2*d]
	inv := 1 / float64(cells)
	for c := 0; c < cells; c++ {
		cell := f.Cell(c)
		for j, x := range cell {
			dxy := x - mean[j]
			std[j] += dxy * dxy
		}
	}
	for j := range std {
		std[j] = math.Sqrt(std[j] * inv)
	}
	out[2*d] = f.Brightness
	out[2*d+1] = f.Contrast
	return out
}

// ChannelMeansInto computes the frame's per-channel feature means — the
// first FeatDim entries of FrameFeature, summed in the same order — into
// dst (allocating only when dst is mis-sized) and returns dst. It is
// the part of the descriptor a detector reads.
func ChannelMeansInto(dst tensor.Vector, f *Frame) tensor.Vector {
	d := f.FeatDim()
	if len(dst) != d {
		dst = tensor.NewVector(d)
	} else {
		dst.Fill(0)
	}
	cells := f.NumCells()
	if cells == 0 {
		return dst
	}
	for c := 0; c < cells; c++ {
		for j, x := range f.Cell(c) {
			dst[j] += x
		}
	}
	inv := 1 / float64(cells)
	for j := range dst {
		dst[j] *= inv
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
