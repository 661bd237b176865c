package synth

import (
	"fmt"

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
// allocations. The channel means and standard deviations run on
// tensor.ColumnMomentsInto's kernel, one lane per channel: AVX-512,
// else AVX2, else the portable Go loops, chosen once from CPUID. Each
// channel sums its cells in ascending order from +0 and scales by
// 1/cells; its deviation sums the squared distances from that mean in
// the same order, scales by the same factor and takes the square root,
// so every tier gives the portable loops' bits.
func FrameFeatureInto(dst tensor.Vector, f *Frame) tensor.Vector {
	d := f.FeatDim()
	if len(dst) != FrameFeatureDim(d) {
		dst = tensor.NewVector(FrameFeatureDim(d))
	}
	jobs := [1]tensor.Moments{frameMoments(dst, f)}
	tensor.ColumnMomentsInto(jobs[:], f.NumCells(), d)
	return dst
}

// FrameFeaturesInto computes FrameFeatureInto(dst[i], frames[i]) for
// every frame, into destinations that must be correctly sized. Runs of
// frames of one shape go through the kernel together, so the add
// chains of up to four frames interleave. It allocates nothing.
func FrameFeaturesInto(dst []tensor.Vector, frames []*Frame) {
	var jobs [16]tensor.Moments // up to 16 frames per kernel call
	for i := 0; i < len(frames); {
		cells, d := frames[i].NumCells(), frames[i].FeatDim()
		n := 0
		for ; i < len(frames) && n < len(jobs) && frames[i].NumCells() == cells && frames[i].FeatDim() == d; i, n = i+1, n+1 {
			if len(dst[i]) != FrameFeatureDim(d) {
				panic(fmt.Sprintf("synth: %d-value descriptor row for a %d-channel frame", len(dst[i]), d))
			}
			jobs[n] = frameMoments(dst[i], frames[i])
		}
		tensor.ColumnMomentsInto(jobs[:n], cells, d)
	}
}

// frameMoments names f's cells and the mean and deviation entries of
// its descriptor dst, and fills in the brightness and contrast entries
// (+0 for a frame of no cells, whose descriptor is all +0).
func frameMoments(dst tensor.Vector, f *Frame) tensor.Moments {
	d := f.FeatDim()
	dst[2*d], dst[2*d+1] = f.Brightness, f.Contrast
	if f.NumCells() == 0 {
		dst[2*d], dst[2*d+1] = 0, 0
	}
	return tensor.Moments{Mean: dst[:d], Std: dst[d : 2*d], X: f.Cells}
}

// ChannelMeansInto computes the frame's per-channel feature means — the
// first FeatDim entries of FrameFeature — into dst (allocating only
// when dst is mis-sized) and returns dst. It is the part of the
// descriptor a detector reads, computed by the same kernel with the
// same bits.
func ChannelMeansInto(dst tensor.Vector, f *Frame) tensor.Vector {
	d := f.FeatDim()
	if len(dst) != d {
		dst = tensor.NewVector(d)
	}
	jobs := [1]tensor.Moments{{Mean: dst, X: f.Cells}}
	tensor.ColumnMomentsInto(jobs[:], f.NumCells(), d)
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
