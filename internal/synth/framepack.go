package synth

import (
	"bufio"
	"fmt"
	"hash/crc32"
	"io"
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
	if _, err := w.Write([]byte(framePackMagic)); err != nil {
		return fmt.Errorf("synth: write magic: %w", err)
	}
	crc := crc32.NewIEEE()
	mw := io.MultiWriter(w, crc)
	if err := binWrite(mw, version, uint16(featDim), uint16(cells), uint32(len(frames))); err != nil {
		return fmt.Errorf("synth: write pack header: %w", err)
	}
	if version == framePackVersionTraced {
		if err := binWrite(mw, uint16(len(trace))); err != nil {
			return fmt.Errorf("synth: write pack trace length: %w", err)
		}
		if _, err := mw.Write([]byte(trace)); err != nil {
			return fmt.Errorf("synth: write pack trace: %w", err)
		}
	}
	cfg := Config{GridW: cells, GridH: 1, FeatDim: featDim}
	for i, f := range frames {
		if err := writeFrame(mw, cfg, f); err != nil {
			return fmt.Errorf("synth: write pack frame %d: %w", i, err)
		}
	}
	if err := binWrite(w, crc.Sum32()); err != nil {
		return fmt.Errorf("synth: write pack checksum: %w", err)
	}
	return nil
}

// DecodeFramesTrace deserializes a frame pack of either version,
// verifying the checksum, and returns the causal trace ID a version-2
// pack carries (empty for version 1). The frames carry their scene
// labels and ground-truth objects; Dataset/Clip/Index provenance does
// not travel.
func DecodeFramesTrace(r io.Reader) ([]*Frame, string, error) {
	br := bufio.NewReader(r)
	magic := make([]byte, 4)
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, "", fmt.Errorf("synth: read magic: %w", err)
	}
	if string(magic) != framePackMagic {
		return nil, "", fmt.Errorf("synth: bad frame-pack magic %q", magic)
	}
	crc := crc32.NewIEEE()
	tr := io.TeeReader(br, crc)
	var (
		version, featDim, cells uint16
		count                   uint32
	)
	if err := binRead(tr, &version, &featDim, &cells, &count); err != nil {
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
		var tlen uint16
		if err := binRead(tr, &tlen); err != nil {
			return nil, "", fmt.Errorf("synth: read pack trace length: %w", err)
		}
		if tlen > maxPackTrace {
			return nil, "", fmt.Errorf("synth: pack trace %d bytes exceeds limit %d", tlen, maxPackTrace)
		}
		tb := make([]byte, tlen)
		if _, err := io.ReadFull(tr, tb); err != nil {
			return nil, "", fmt.Errorf("synth: read pack trace: %w", err)
		}
		trace = string(tb)
	}
	cfg := Config{GridW: int(cells), GridH: 1, FeatDim: int(featDim)}
	frames := make([]*Frame, 0, count)
	for i := 0; i < int(count); i++ {
		f, err := readFrame(tr, cfg)
		if err != nil {
			return nil, "", fmt.Errorf("synth: read pack frame %d: %w", i, err)
		}
		f.Index = i
		frames = append(frames, f)
	}
	wantCRC := crc.Sum32()
	var gotCRC uint32
	if err := binRead(br, &gotCRC); err != nil {
		return nil, "", fmt.Errorf("synth: read pack checksum: %w", err)
	}
	if gotCRC != wantCRC {
		return nil, "", fmt.Errorf("synth: frame-pack checksum mismatch: stored %08x, computed %08x", gotCRC, wantCRC)
	}
	return frames, trace, nil
}
