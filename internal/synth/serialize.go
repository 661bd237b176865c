package synth

import (
	"fmt"
	"io"
	"os"

	"anole/internal/codec"
)

// Corpus file format (all little-endian):
//
//	magic    [4]byte "ANLD"
//	version  uint16 (1)
//	config:  seed uint64, gridW/gridH/featDim uint16,
//	         sceneShift/noiseStd/clutterStd float64, maxObjects uint16
//	clips    uint32, then per clip:
//	  dataset uint8, id uint32, seen uint8, frames uint32
//	  per frame:
//	    scene uint16, brightness float64, contrast float64,
//	    objects uint8 ×(cell uint16, class uint8, size float64),
//	    cells (gridW·gridH·featDim) float64
//	crc32    uint32 (IEEE, over everything after the magic)
//
// Exporting a corpus pins the exact labeled trace an experiment ran on,
// so cloud- and device-side tooling (and external analysis) see identical
// data.
const (
	corpusMagic   = "ANLD"
	corpusVersion = 1
	maxClips      = 1 << 20
	maxFrames     = 1 << 24
	// maxCorpusGrid and maxCorpusFeatDim bound the geometry a header may
	// claim: the world rebuilt from it holds 136 featDim×featDim matrices
	// (16 attribute rotations, 120 scene transforms; some 72 MB at the
	// cap), so an unchecked uint16 featDim would let a 50-byte file ask
	// for terabytes.
	maxCorpusGrid    = 256
	maxCorpusFeatDim = 256
)

// WriteCorpus serializes the corpus (and its world configuration, for
// provenance) to w.
func (c *Corpus) WriteCorpus(w io.Writer) error {
	if c.World == nil {
		return fmt.Errorf("synth: corpus has no world")
	}
	cfg := c.World.Config()
	if !corpusGeometryOK(cfg) {
		return fmt.Errorf("synth: geometry %dx%d cells × %d features exceeds the corpus format's caps", cfg.GridW, cfg.GridH, cfg.FeatDim)
	}
	cw := codec.NewWriter(w, corpusMagic)
	cw.Uint16(corpusVersion)
	cw.Uint64(cfg.Seed)
	cw.Uint16(uint16(cfg.GridW))
	cw.Uint16(uint16(cfg.GridH))
	cw.Uint16(uint16(cfg.FeatDim))
	cw.Float64(cfg.SceneShift)
	cw.Float64(cfg.NoiseStd)
	cw.Float64(cfg.ClutterStd)
	cw.Uint16(uint16(cfg.MaxObjects))
	cw.Uint32(uint32(len(c.Clips)))
	for ci, clip := range c.Clips {
		seen := uint8(0)
		if clip.Seen {
			seen = 1
		}
		cw.Uint8(uint8(clip.Dataset))
		cw.Uint32(uint32(clip.ID))
		cw.Uint8(seen)
		cw.Uint32(uint32(len(clip.Frames)))
		for fi, f := range clip.Frames {
			if err := writeFrame(cw, cfg.Cells(), cfg.FeatDim, f); err != nil {
				return fmt.Errorf("synth: write clip %d frame %d: %w", ci, fi, err)
			}
		}
	}
	if err := cw.Close(); err != nil {
		return fmt.Errorf("synth: write corpus: %w", err)
	}
	return nil
}

// writeFrame writes f in the per-frame encoding above; f must hold
// cells×featDim cell values.
func writeFrame(w *codec.Writer, cells, featDim int, f *Frame) error {
	if len(f.Objects) > 255 {
		return fmt.Errorf("frame has %d objects", len(f.Objects))
	}
	if len(f.Cells) != cells*featDim {
		return fmt.Errorf("frame has %d cell floats, want %d", len(f.Cells), cells*featDim)
	}
	w.Uint16(uint16(f.Scene.Index()))
	w.Float64(f.Brightness)
	w.Float64(f.Contrast)
	w.Uint8(uint8(len(f.Objects)))
	for _, o := range f.Objects {
		w.Uint16(uint16(o.Cell))
		w.Uint8(uint8(o.Class))
		w.Float64(o.Size)
	}
	w.Float64s(f.Cells)
	return nil
}

// ReadCorpus deserializes a corpus written by WriteCorpus, verifying the
// checksum and then reconstructing the generating world from the stored
// configuration. The world is built only from a verified header within
// the geometry caps: its size grows as featDim².
func ReadCorpus(r io.Reader) (*Corpus, error) {
	cr := codec.NewReader(r, corpusMagic)
	version := cr.Uint16()
	cfg := Config{
		Seed:       cr.Uint64(),
		GridW:      int(cr.Uint16()),
		GridH:      int(cr.Uint16()),
		FeatDim:    int(cr.Uint16()),
		SceneShift: cr.Float64(),
		NoiseStd:   cr.Float64(),
		ClutterStd: cr.Float64(),
		MaxObjects: int(cr.Uint16()),
	}
	clipCount := cr.Uint32()
	if err := cr.Err(); err != nil {
		return nil, fmt.Errorf("synth: read header: %w", err)
	}
	if version != corpusVersion {
		return nil, fmt.Errorf("synth: unsupported version %d", version)
	}
	if clipCount > maxClips {
		return nil, fmt.Errorf("synth: implausible clip count %d", clipCount)
	}
	if !corpusGeometryOK(cfg) {
		return nil, fmt.Errorf("synth: implausible geometry %dx%d cells × %d features", cfg.GridW, cfg.GridH, cfg.FeatDim)
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}

	corpus := &Corpus{}
	totalFrames := 0
	for ci := 0; ci < int(clipCount); ci++ {
		clip := &Clip{Dataset: DatasetID(cr.Uint8()), ID: int(cr.Uint32())}
		seen, frames := cr.Uint8(), cr.Uint32()
		if err := cr.Err(); err != nil {
			return nil, fmt.Errorf("synth: read clip %d: %w", ci, err)
		}
		if seen > 1 {
			return nil, fmt.Errorf("synth: clip %d has bad seen flag %d", ci, seen)
		}
		clip.Seen = seen == 1
		totalFrames += int(frames)
		if totalFrames > maxFrames {
			return nil, fmt.Errorf("synth: implausible total frame count %d", totalFrames)
		}
		for fi := 0; fi < int(frames); fi++ {
			f, err := readFrame(cr, cfg.Cells(), cfg.FeatDim)
			if err != nil {
				return nil, fmt.Errorf("synth: read clip %d frame %d: %w", ci, fi, err)
			}
			f.Dataset = clip.Dataset
			f.Clip = clip.ID
			f.Index = fi
			clip.Frames = append(clip.Frames, f)
		}
		corpus.Clips = append(corpus.Clips, clip)
	}
	if err := cr.Close(); err != nil {
		return nil, fmt.Errorf("synth: corpus: %w", err)
	}
	world, err := NewWorld(cfg)
	if err != nil {
		return nil, fmt.Errorf("synth: rebuild world: %w", err)
	}
	corpus.World = world
	return corpus, nil
}

// corpusGeometryOK reports whether cfg's grid and feature dimension lie
// within the corpus format's caps.
func corpusGeometryOK(cfg Config) bool {
	return cfg.GridW <= maxCorpusGrid && cfg.GridH <= maxCorpusGrid && cfg.FeatDim <= maxCorpusFeatDim
}

// readFrame reads one frame of cells×featDim cell values.
func readFrame(r *codec.Reader, cells, featDim int) (*Frame, error) {
	sceneIdx := r.Uint16()
	f := &Frame{Brightness: r.Float64(), Contrast: r.Float64(), featDim: featDim}
	objCount := r.Uint8()
	if err := r.Err(); err != nil {
		return nil, err
	}
	if int(sceneIdx) >= NumScenes {
		return nil, fmt.Errorf("scene index %d out of range", sceneIdx)
	}
	f.Scene = SceneFromIndex(int(sceneIdx))
	for i := 0; i < int(objCount); i++ {
		o := Object{Cell: int(r.Uint16()), Class: Class(r.Uint8()), Size: r.Float64()}
		if err := r.Err(); err != nil {
			return nil, err
		}
		if o.Cell >= cells || int(o.Class) >= NumClasses {
			return nil, fmt.Errorf("object %d out of range (cell %d, class %d)", i, o.Cell, o.Class)
		}
		f.Objects = append(f.Objects, o)
	}
	f.Cells = r.Float64s(cells * featDim)
	if err := r.Err(); err != nil {
		return nil, err
	}
	return f, nil
}

// SaveCorpusFile writes the corpus to path atomically (codec.SaveFile).
func SaveCorpusFile(path string, c *Corpus) error {
	return codec.SaveFile(path, c.WriteCorpus)
}

// LoadCorpusFile reads a corpus from disk.
func LoadCorpusFile(path string) (*Corpus, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("synth: %w", err)
	}
	defer f.Close()
	return ReadCorpus(f)
}
