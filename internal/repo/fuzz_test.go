package repo

import (
	"bytes"
	"encoding/binary"
	"io"
	"runtime"
	"testing"

	"anole/internal/core"
	"anole/internal/decision"
	"anole/internal/detect"
	"anole/internal/nn"
	"anole/internal/scene"
	"anole/internal/synth"
	"anole/internal/xrand"
)

// tinyBundle hand-assembles the smallest valid bundle — untrained
// random networks, two models, one centroid — so the fuzz seed corpus
// carries real structure without paying for profiling.
func tinyBundle(tb testing.TB) *core.Bundle {
	tb.Helper()
	const featDim = 3
	rng := xrand.NewLabeled(11, "fuzz-bundle")
	inDim := synth.FrameFeatureDim(featDim)
	const embedDim = 4
	encNet := nn.NewMLP(nn.MLPConfig{InDim: inDim, Hidden: []int{6, embedDim}, OutDim: 2}, rng)
	enc, err := scene.FromParts(encNet.Freeze(), []int{0, 3}, embedDim)
	if err != nil {
		tb.Fatal(err)
	}
	const models = 2
	head := nn.NewMLP(nn.MLPConfig{InDim: embedDim, Hidden: []int{5}, OutDim: models}, rng)
	dec, err := decision.FromParts(enc, head.Freeze())
	if err != nil {
		tb.Fatal(err)
	}
	detectors := make([]*detect.Detector, models)
	infos := make([]core.ModelInfo, models)
	for i := range detectors {
		detectors[i] = detect.NewDetector(
			[]string{"M_0", "M_1"}[i], detect.Compressed, featDim, rng)
		infos[i] = core.ModelInfo{Name: detectors[i].Name, Level: i, Cluster: i, TrainScenes: []int{i}, ValF1: 0.5}
	}
	b := &core.Bundle{
		Encoder:      enc,
		Decision:     dec,
		Detectors:    detectors,
		Infos:        infos,
		FeatDim:      featDim,
		Centroids:    nil,
		NoveltyScale: 0,
	}
	if err := b.Validate(); err != nil {
		tb.Fatal(err)
	}
	return b
}

// FuzzReadBundle pushes corrupted, truncated and mutated bytes through
// the binary bundle decoder: it must return an error or a valid bundle,
// and must never panic — the device-side download path parses exactly
// these bytes off the network.
func FuzzReadBundle(f *testing.F) {
	var buf bytes.Buffer
	if err := WriteBundle(&buf, tinyBundle(f)); err != nil {
		f.Fatal(err)
	}
	valid := buf.Bytes()

	f.Add(valid)
	f.Add(valid[:len(valid)/2])                         // truncated mid-structure
	f.Add(valid[:5])                                    // header only
	f.Add([]byte("ANLB"))                               // magic alone
	f.Add([]byte("NOPE garbage"))                       // wrong magic
	f.Add(bytes.Repeat([]byte{0}, 64))                  // zeros
	f.Add(append([]byte(nil), valid...)[:len(valid)-4]) // checksum missing
	flipped := append([]byte(nil), valid...)
	flipped[len(flipped)/3] ^= 0x55 // corrupt interior byte
	f.Add(flipped)
	biggified := append([]byte(nil), valid...)
	// Blast the length-prefixed region after the header with 0xff to
	// exercise the implausible-size guards.
	for i := 10; i < 26 && i < len(biggified); i++ {
		biggified[i] = 0xff
	}
	f.Add(biggified)

	f.Fuzz(func(t *testing.T, data []byte) {
		b, err := ReadBundle(bytes.NewReader(data))
		if err != nil {
			return
		}
		// Anything the decoder accepts must be internally consistent
		// and re-serializable.
		if err := b.Validate(); err != nil {
			t.Fatalf("decoded bundle fails validation: %v", err)
		}
		if err := WriteBundle(io.Discard, b); err != nil {
			t.Fatalf("decoded bundle does not re-serialize: %v", err)
		}
	})
}

// TestReadBundleBoundsAllocationByInput pins the bundle decoder against
// header-driven allocation: a bundle whose novelty header claims the
// most centroids the dims allow (65536 of dimension 1) and carries none
// of them must not make ReadBundle reserve room for them.
func TestReadBundleBoundsAllocationByInput(t *testing.T) {
	b := tinyBundle(t)
	blob := binary.LittleEndian.AppendUint16([]byte(bundleMagic), bundleVersion)
	blob = binary.LittleEndian.AppendUint32(blob, uint32(b.FeatDim))
	blob = binary.LittleEndian.AppendUint32(blob, 1) // embedDim
	blob = binary.LittleEndian.AppendUint32(blob, 0) // empty scene map
	for _, w := range []*nn.Weights{b.Encoder.Weights, b.Decision.Head} {
		var net bytes.Buffer
		if _, err := w.WriteTo(&net); err != nil {
			t.Fatal(err)
		}
		blob = binary.LittleEndian.AppendUint64(blob, uint64(net.Len()))
		blob = append(blob, net.Bytes()...)
	}
	blob = binary.LittleEndian.AppendUint64(blob, 0) // novelty scale
	blob = binary.LittleEndian.AppendUint32(blob, maxCentroids)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	_, err := ReadBundle(bytes.NewReader(blob))
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("bundle with no centroid data decoded")
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
		t.Fatalf("a %d-byte bundle allocated %d bytes, want < 1 MiB", len(blob), got)
	}
}
