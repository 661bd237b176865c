package synth

import (
	"fmt"
	"io"

	"anole/internal/codec"
)

// Frame-pack format (all little-endian):
//
//	magic    [4]byte "ANLF"
//	version  uint16 (1 or 2)
//	featDim  uint16
//	cells    uint16
//	count    uint32
//	trace    uint16 length + bytes (version 2 only)
//	frames   count × (the corpus file's per-frame encoding)
//	crc32    uint32 (IEEE, over everything after the magic)
//
// A frame pack is the wire form of a small labeled frame set detached
// from any corpus — drift reports ship their exemplar frames to the
// adaptation controller in it. Unlike the corpus format it carries no
// world configuration: the receiver only needs the frames' geometry,
// which the header pins. Version 2 additionally carries the drift
// report's causal trace ID, so the evidence payload itself names the
// device→cloud journey it belongs to; a pack without a trace is
// written as version 1, byte-identical to pre-trace encoders.
const (
	framePackMagic         = "ANLF"
	framePackVersion       = 1
	framePackVersionTraced = 2
	maxPackFrames          = 1 << 16
	maxPackTrace           = 256
)

// EncodeFramesTrace serializes frames as a frame pack carrying a causal
// trace ID. An empty trace writes the version-1 layout; a non-empty one
// writes version 2. All frames must share one cell count and feature
// dimension; at least one frame is required (an empty pack has no
// geometry to pin).
func EncodeFramesTrace(w io.Writer, frames []*Frame, trace string) error {
	if len(frames) == 0 {
		return fmt.Errorf("synth: empty frame pack")
	}
	if len(frames) > maxPackFrames {
		return fmt.Errorf("synth: %d frames exceed pack limit %d", len(frames), maxPackFrames)
	}
	cells, featDim := frames[0].NumCells(), frames[0].FeatDim()
	for i, f := range frames {
		if f == nil {
			return fmt.Errorf("synth: nil frame %d", i)
		}
		if f.NumCells() != cells || f.FeatDim() != featDim {
			return fmt.Errorf("synth: frame %d geometry %d×%d, pack %d×%d",
				i, f.NumCells(), f.FeatDim(), cells, featDim)
		}
	}
	if len(trace) > maxPackTrace {
		return fmt.Errorf("synth: trace %d bytes exceeds pack limit %d", len(trace), maxPackTrace)
	}
	version := uint16(framePackVersion)
	if trace != "" {
		version = framePackVersionTraced
	}
	cw := codec.NewWriter(w, framePackMagic)
	cw.Uint16(version)
	cw.Uint16(uint16(featDim))
	cw.Uint16(uint16(cells))
	cw.Uint32(uint32(len(frames)))
	if version == framePackVersionTraced {
		cw.String16(trace)
	}
	for i, f := range frames {
		if err := writeFrame(cw, cells, featDim, f); err != nil {
			return fmt.Errorf("synth: write pack frame %d: %w", i, err)
		}
	}
	if err := cw.Close(); err != nil {
		return fmt.Errorf("synth: write frame pack: %w", err)
	}
	return nil
}

// DecodeFramesTrace deserializes a frame pack of either version,
// verifying the checksum, and returns the causal trace ID a version-2
// pack carries (empty for version 1). The frames carry their scene
// labels and ground-truth objects; Dataset/Clip/Index provenance does
// not travel.
func DecodeFramesTrace(r io.Reader) ([]*Frame, string, error) {
	cr := codec.NewReader(r, framePackMagic)
	version, featDim, cells, count := cr.Uint16(), cr.Uint16(), cr.Uint16(), cr.Uint32()
	if err := cr.Err(); err != nil {
		return nil, "", fmt.Errorf("synth: read pack header: %w", err)
	}
	if version != framePackVersion && version != framePackVersionTraced {
		return nil, "", fmt.Errorf("synth: unsupported frame-pack version %d", version)
	}
	if count == 0 || count > maxPackFrames {
		return nil, "", fmt.Errorf("synth: implausible frame count %d", count)
	}
	if featDim == 0 || cells == 0 {
		return nil, "", fmt.Errorf("synth: implausible geometry %d×%d", cells, featDim)
	}
	var trace string
	if version == framePackVersionTraced {
		trace = cr.String16(maxPackTrace)
		if err := cr.Err(); err != nil {
			return nil, "", fmt.Errorf("synth: read pack trace: %w", err)
		}
	}
	frames := make([]*Frame, 0, count)
	for i := 0; i < int(count); i++ {
		f, err := readFrame(cr, int(cells), int(featDim))
		if err != nil {
			return nil, "", fmt.Errorf("synth: read pack frame %d: %w", i, err)
		}
		f.Index = i
		frames = append(frames, f)
	}
	if err := cr.Close(); err != nil {
		return nil, "", fmt.Errorf("synth: frame pack: %w", err)
	}
	return frames, trace, nil
}
