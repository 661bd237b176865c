package synth

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
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
)

// WriteCorpus serializes the corpus (and its world configuration, for
// provenance) to w.
func (c *Corpus) WriteCorpus(w io.Writer) error {
	if c.World == nil {
		return fmt.Errorf("synth: corpus has no world")
	}
	if _, err := w.Write([]byte(corpusMagic)); err != nil {
		return fmt.Errorf("synth: write magic: %w", err)
	}
	crc := crc32.NewIEEE()
	mw := io.MultiWriter(w, crc)
	cfg := c.World.Config()
	if err := binWrite(mw,
		uint16(corpusVersion),
		cfg.Seed,
		uint16(cfg.GridW), uint16(cfg.GridH), uint16(cfg.FeatDim),
		cfg.SceneShift, cfg.NoiseStd, cfg.ClutterStd,
		uint16(cfg.MaxObjects),
		uint32(len(c.Clips)),
	); err != nil {
		return fmt.Errorf("synth: write header: %w", err)
	}
	for ci, clip := range c.Clips {
		seen := uint8(0)
		if clip.Seen {
			seen = 1
		}
		if err := binWrite(mw, uint8(clip.Dataset), uint32(clip.ID), seen, uint32(len(clip.Frames))); err != nil {
			return fmt.Errorf("synth: write clip %d: %w", ci, err)
		}
		for fi, f := range clip.Frames {
			if err := writeFrame(mw, cfg, f); err != nil {
				return fmt.Errorf("synth: write clip %d frame %d: %w", ci, fi, err)
			}
		}
	}
	if err := binWrite(w, crc.Sum32()); err != nil {
		return fmt.Errorf("synth: write checksum: %w", err)
	}
	return nil
}

func writeFrame(w io.Writer, cfg Config, f *Frame) error {
	if len(f.Objects) > 255 {
		return fmt.Errorf("frame has %d objects", len(f.Objects))
	}
	if err := binWrite(w, uint16(f.Scene.Index()), f.Brightness, f.Contrast, uint8(len(f.Objects))); err != nil {
		return err
	}
	for _, o := range f.Objects {
		if err := binWrite(w, uint16(o.Cell), uint8(o.Class), o.Size); err != nil {
			return err
		}
	}
	want := cfg.Cells() * cfg.FeatDim
	if len(f.Cells) != want {
		return fmt.Errorf("frame has %d cell floats, want %d", len(f.Cells), want)
	}
	buf := make([]byte, 8*len(f.Cells))
	for i, x := range f.Cells {
		binary.LittleEndian.PutUint64(buf[i*8:], math.Float64bits(x))
	}
	_, err := w.Write(buf)
	return err
}

// ReadCorpus deserializes a corpus written by WriteCorpus, reconstructing
// the generating world from the stored configuration and verifying the
// checksum.
func ReadCorpus(r io.Reader) (*Corpus, error) {
	br := bufio.NewReader(r)
	magic := make([]byte, 4)
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, fmt.Errorf("synth: read magic: %w", err)
	}
	if string(magic) != corpusMagic {
		return nil, fmt.Errorf("synth: bad magic %q", magic)
	}
	crc := crc32.NewIEEE()
	tr := io.TeeReader(br, crc)

	var (
		version                uint16
		seed                   uint64
		gridW, gridH, featDim  uint16
		shift, noise, clutter  float64
		maxObjects, _clipCount = uint16(0), uint32(0)
	)
	if err := binRead(tr, &version, &seed, &gridW, &gridH, &featDim,
		&shift, &noise, &clutter, &maxObjects, &_clipCount); err != nil {
		return nil, fmt.Errorf("synth: read header: %w", err)
	}
	if version != corpusVersion {
		return nil, fmt.Errorf("synth: unsupported version %d", version)
	}
	if _clipCount > maxClips {
		return nil, fmt.Errorf("synth: implausible clip count %d", _clipCount)
	}
	cfg := Config{
		Seed:       seed,
		GridW:      int(gridW),
		GridH:      int(gridH),
		FeatDim:    int(featDim),
		SceneShift: shift,
		NoiseStd:   noise,
		ClutterStd: clutter,
		MaxObjects: int(maxObjects),
	}
	world, err := NewWorld(cfg)
	if err != nil {
		return nil, fmt.Errorf("synth: rebuild world: %w", err)
	}

	corpus := &Corpus{World: world}
	totalFrames := 0
	for ci := 0; ci < int(_clipCount); ci++ {
		var (
			dataset, seen uint8
			id, frames    uint32
		)
		if err := binRead(tr, &dataset, &id, &seen, &frames); err != nil {
			return nil, fmt.Errorf("synth: read clip %d: %w", ci, err)
		}
		totalFrames += int(frames)
		if totalFrames > maxFrames {
			return nil, fmt.Errorf("synth: implausible total frame count %d", totalFrames)
		}
		clip := &Clip{Dataset: DatasetID(dataset), ID: int(id), Seen: seen != 0}
		for fi := 0; fi < int(frames); fi++ {
			f, err := readFrame(tr, cfg)
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
	wantCRC := crc.Sum32()
	var gotCRC uint32
	if err := binRead(br, &gotCRC); err != nil {
		return nil, fmt.Errorf("synth: read checksum: %w", err)
	}
	if gotCRC != wantCRC {
		return nil, fmt.Errorf("synth: checksum mismatch: stored %08x, computed %08x", gotCRC, wantCRC)
	}
	return corpus, nil
}

func readFrame(r io.Reader, cfg Config) (*Frame, error) {
	var (
		sceneIdx             uint16
		brightness, contrast float64
		objCount             uint8
	)
	if err := binRead(r, &sceneIdx, &brightness, &contrast, &objCount); err != nil {
		return nil, err
	}
	if int(sceneIdx) >= NumScenes {
		return nil, fmt.Errorf("scene index %d out of range", sceneIdx)
	}
	f := &Frame{
		Scene:      SceneFromIndex(int(sceneIdx)),
		Brightness: brightness,
		Contrast:   contrast,
		featDim:    cfg.FeatDim,
	}
	cells := cfg.Cells()
	for i := 0; i < int(objCount); i++ {
		var (
			cell  uint16
			class uint8
			size  float64
		)
		if err := binRead(r, &cell, &class, &size); err != nil {
			return nil, err
		}
		if int(cell) >= cells || int(class) >= NumClasses {
			return nil, fmt.Errorf("object %d out of range (cell %d, class %d)", i, cell, class)
		}
		f.Objects = append(f.Objects, Object{Cell: int(cell), Class: Class(class), Size: size})
	}
	// The geometry comes from the input's header, so the cells are read
	// a chunk at a time: memory grows with the bytes actually delivered,
	// never with what a header claims.
	n := cells * cfg.FeatDim
	f.Cells = make([]float64, 0, min(n, readChunk))
	buf := make([]byte, 8*min(n, readChunk))
	for len(f.Cells) < n {
		chunk := buf[:8*min(n-len(f.Cells), readChunk)]
		if _, err := io.ReadFull(r, chunk); err != nil {
			return nil, err
		}
		for i := 0; i < len(chunk); i += 8 {
			f.Cells = append(f.Cells, math.Float64frombits(binary.LittleEndian.Uint64(chunk[i:])))
		}
	}
	return f, nil
}

// readChunk is how many cell values readFrame reads at a time.
const readChunk = 4096

// SaveCorpusFile writes the corpus to path atomically.
func SaveCorpusFile(path string, c *Corpus) error {
	dir := "."
	for i := len(path) - 1; i >= 0; i-- {
		if path[i] == '/' {
			dir = path[:i]
			break
		}
	}
	tmp, err := os.CreateTemp(dir, ".corpus-*")
	if err != nil {
		return fmt.Errorf("synth: %w", err)
	}
	defer os.Remove(tmp.Name())
	bw := bufio.NewWriter(tmp)
	if err := c.WriteCorpus(bw); err != nil {
		tmp.Close()
		return err
	}
	if err := bw.Flush(); err != nil {
		tmp.Close()
		return fmt.Errorf("synth: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("synth: %w", err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("synth: %w", err)
	}
	return nil
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

func binWrite(w io.Writer, vs ...interface{}) error {
	for _, v := range vs {
		if err := binary.Write(w, binary.LittleEndian, v); err != nil {
			return err
		}
	}
	return nil
}

func binRead(r io.Reader, vs ...interface{}) error {
	for _, v := range vs {
		if err := binary.Read(r, binary.LittleEndian, v); err != nil {
			return err
		}
	}
	return nil
}
