// Package repo implements the cloud-side model repository: a binary
// bundle format carrying M_scene, M_decision and the compressed model
// repertoire, plus an HTTP server and device-side client so mobile
// devices can download everything before going online (the paper's
// offline cloud↔device communication, Fig. 2).
package repo

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"os"

	"anole/internal/codec"
	"anole/internal/core"
	"anole/internal/decision"
	"anole/internal/detect"
	"anole/internal/nn"
	"anole/internal/scene"
	"anole/internal/tensor"
)

// Bundle file format (all little-endian):
//
//	magic    [4]byte "ANLB"
//	version  uint16 (2)
//	featDim  uint32
//	embedDim uint32
//	scenes   uint32, then scenes × int32  (encoder ClassToScene)
//	encoder  network blob (uint64 length + nn wire format)
//	decision network blob
//	novelty  scale float64, centroids uint32, then centroids × embedDim
//	         float64 (the OOD calibration; zero centroids = uncalibrated)
//	models   uint16, then per model:
//	  name      string (uint16 length + bytes)
//	  archName  string
//	  level     uint16
//	  cluster   int16 (-1 marks continual-expansion models)
//	  valF1     float64
//	  nScenes   uint32, then nScenes × int32
//	  network blob
//	crc32    uint32 (IEEE, over everything after the magic)
const (
	bundleMagic   = "ANLB"
	bundleVersion = 2
	maxModels     = 1 << 12
	maxScenes     = 1 << 16
	maxCentroids  = 1 << 16
	// maxDim bounds featDim/embedDim read from untrusted bytes, so a
	// corrupted header cannot demand a gigantic centroid allocation
	// before the checksum is ever verified.
	maxDim = 1 << 16
)

// WriteBundle serializes the bundle to w.
func WriteBundle(w io.Writer, b *core.Bundle) error {
	if err := b.Validate(); err != nil {
		return err
	}
	embedDim := b.Encoder.EmbedDim()
	for i, c := range b.Centroids {
		if len(c) != embedDim {
			return fmt.Errorf("repo: centroid %d has dim %d, embed dim %d", i, len(c), embedDim)
		}
	}
	cw := codec.NewWriter(w, bundleMagic)
	cw.Uint16(bundleVersion)
	cw.Uint32(uint32(b.FeatDim))
	cw.Uint32(uint32(embedDim))
	if err := writeInts(cw, b.Encoder.ClassToScene); err != nil {
		return fmt.Errorf("repo: write scene map: %w", err)
	}
	writeNetBlob(cw, b.Encoder.Weights)
	writeNetBlob(cw, b.Decision.Head)
	cw.Float64(b.NoveltyScale)
	cw.Uint32(uint32(len(b.Centroids)))
	for _, c := range b.Centroids {
		cw.Float64s(c)
	}
	cw.Uint16(uint16(len(b.Detectors)))
	for i, det := range b.Detectors {
		info := b.Infos[i]
		cw.String16(det.Name)
		cw.String16(det.Arch.Name)
		cw.Uint16(uint16(info.Level))
		cw.Uint16(uint16(int16(info.Cluster)))
		cw.Float64(info.ValF1)
		if err := writeInts(cw, info.TrainScenes); err != nil {
			return fmt.Errorf("repo: model %d scenes: %w", i, err)
		}
		writeNetBlob(cw, det.Weights())
	}
	if err := cw.Close(); err != nil {
		return fmt.Errorf("repo: write bundle: %w", err)
	}
	return nil
}

// ReadBundle deserializes a bundle written by WriteBundle, verifying the
// checksum and reconstructing the encoder, decision model and detectors.
func ReadBundle(r io.Reader) (*core.Bundle, error) {
	cr := codec.NewReader(r, bundleMagic)
	version, featDim, embedDim := cr.Uint16(), cr.Uint32(), cr.Uint32()
	if err := cr.Err(); err != nil {
		return nil, fmt.Errorf("repo: read header: %w", err)
	}
	if version != bundleVersion {
		return nil, fmt.Errorf("repo: unsupported version %d", version)
	}
	if featDim == 0 || featDim > maxDim {
		return nil, fmt.Errorf("repo: implausible feature dim %d", featDim)
	}
	if embedDim == 0 || embedDim > maxDim {
		return nil, fmt.Errorf("repo: implausible embedding dim %d", embedDim)
	}
	classToScene, err := readInts(cr)
	if err != nil {
		return nil, fmt.Errorf("repo: read scene map: %w", err)
	}
	encNet, err := readNetBlob(cr)
	if err != nil {
		return nil, fmt.Errorf("repo: read encoder: %w", err)
	}
	headNet, err := readNetBlob(cr)
	if err != nil {
		return nil, fmt.Errorf("repo: read decision head: %w", err)
	}
	noveltyScale, centroidCount := cr.Float64(), cr.Uint32()
	if err := cr.Err(); err != nil {
		return nil, fmt.Errorf("repo: read novelty header: %w", err)
	}
	if centroidCount > maxCentroids {
		return nil, fmt.Errorf("repo: implausible centroid count %d", centroidCount)
	}
	if total := uint64(centroidCount) * uint64(embedDim); total > 1<<22 {
		return nil, fmt.Errorf("repo: implausible centroid payload (%d floats)", total)
	}
	// The centroids grow as they arrive: the count comes from the header.
	var centroids []tensor.Vector
	for i := 0; i < int(centroidCount) && cr.Err() == nil; i++ {
		centroids = append(centroids, cr.Float64s(int(embedDim)))
	}
	modelCount := cr.Uint16()
	if err := cr.Err(); err != nil {
		return nil, fmt.Errorf("repo: read centroids: %w", err)
	}
	if modelCount == 0 || int(modelCount) > maxModels {
		return nil, fmt.Errorf("repo: implausible model count %d", modelCount)
	}

	enc, err := scene.FromParts(encNet, classToScene, int(embedDim))
	if err != nil {
		return nil, fmt.Errorf("repo: rebuild encoder: %w", err)
	}
	dec, err := decision.FromParts(enc, headNet)
	if err != nil {
		return nil, fmt.Errorf("repo: rebuild decision model: %w", err)
	}

	detectors := make([]*detect.Detector, modelCount)
	infos := make([]core.ModelInfo, modelCount)
	for i := 0; i < int(modelCount); i++ {
		name, archName := cr.String16(math.MaxUint16), cr.String16(math.MaxUint16)
		level, cluster, valF1 := cr.Uint16(), int16(cr.Uint16()), cr.Float64()
		scenes, err := readInts(cr)
		if err != nil {
			return nil, fmt.Errorf("repo: model %d meta: %w", i, err)
		}
		w, err := readNetBlob(cr)
		if err != nil {
			return nil, fmt.Errorf("repo: model %d net: %w", i, err)
		}
		arch, err := ArchByName(archName)
		if err != nil {
			return nil, fmt.Errorf("repo: model %d: %w", i, err)
		}
		det, err := detect.FromWeights(name, arch, int(featDim), w)
		if err != nil {
			return nil, fmt.Errorf("repo: model %d: %w", i, err)
		}
		detectors[i] = det
		infos[i] = core.ModelInfo{
			Name:        name,
			Level:       int(level),
			Cluster:     int(cluster),
			TrainScenes: scenes,
			ValF1:       valF1,
		}
	}
	if err := cr.Close(); err != nil {
		return nil, fmt.Errorf("repo: %w", err)
	}

	bundle := &core.Bundle{
		Encoder:      enc,
		Decision:     dec,
		Detectors:    detectors,
		Infos:        infos,
		FeatDim:      int(featDim),
		Centroids:    centroids,
		NoveltyScale: noveltyScale,
	}
	if err := bundle.Validate(); err != nil {
		return nil, err
	}
	return bundle, nil
}

// SaveFile writes the bundle to path atomically (codec.SaveFile).
func SaveFile(path string, b *core.Bundle) error {
	return codec.SaveFile(path, func(w io.Writer) error { return WriteBundle(w, b) })
}

// LoadFile reads a bundle from disk.
func LoadFile(path string) (*core.Bundle, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("repo: %w", err)
	}
	defer f.Close()
	return ReadBundle(f)
}

// ArchByName resolves a serialized architecture name.
func ArchByName(name string) (detect.Arch, error) {
	switch name {
	case detect.Deep.Name:
		return detect.Deep, nil
	case detect.Compressed.Name:
		return detect.Compressed, nil
	default:
		return detect.Arch{}, fmt.Errorf("repo: unknown architecture %q", name)
	}
}

func writeInts(w *codec.Writer, xs []int) error {
	if len(xs) > maxScenes {
		return fmt.Errorf("int list too long (%d)", len(xs))
	}
	w.Uint32(uint32(len(xs)))
	for _, x := range xs {
		if x < math.MinInt32 || x > math.MaxInt32 {
			return fmt.Errorf("int %d out of int32 range", x)
		}
		w.Uint32(uint32(int32(x)))
	}
	return nil
}

func readInts(r *codec.Reader) ([]int, error) {
	n := r.Uint32()
	if n > maxScenes {
		return nil, fmt.Errorf("implausible int list length %d", n)
	}
	out := make([]int, n)
	for i := range out {
		out[i] = int(int32(r.Uint32()))
	}
	if err := r.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

func writeNetBlob(w *codec.Writer, weights *nn.Weights) {
	var buf bytes.Buffer
	_, _ = weights.WriteTo(&buf) // writes to a bytes.Buffer cannot fail
	w.Blob(buf.Bytes())
}

func readNetBlob(r *codec.Reader) (*nn.Weights, error) {
	const maxBlob = 1 << 30
	blob := r.Blob(maxBlob)
	if err := r.Err(); err != nil {
		return nil, err
	}
	return nn.ReadWeights(bytes.NewReader(blob))
}
