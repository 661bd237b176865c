package synth

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"anole/internal/xrand"
)

func corpusFixture(t *testing.T) *Corpus {
	t.Helper()
	w := testWorld(t, 900)
	return w.GenerateCorpus(DefaultProfiles(0.15))
}

func corporaEqual(t *testing.T, a, b *Corpus) {
	t.Helper()
	if len(a.Clips) != len(b.Clips) {
		t.Fatalf("clip counts: %d vs %d", len(a.Clips), len(b.Clips))
	}
	if a.World.Config() != b.World.Config() {
		t.Fatalf("world configs differ: %+v vs %+v", a.World.Config(), b.World.Config())
	}
	for ci := range a.Clips {
		ca, cb := a.Clips[ci], b.Clips[ci]
		if ca.Dataset != cb.Dataset || ca.ID != cb.ID || ca.Seen != cb.Seen {
			t.Fatalf("clip %d metadata differs", ci)
		}
		if len(ca.Frames) != len(cb.Frames) {
			t.Fatalf("clip %d frame counts differ", ci)
		}
		for fi := range ca.Frames {
			fa, fb := ca.Frames[fi], cb.Frames[fi]
			if fa.Scene != fb.Scene || fa.Brightness != fb.Brightness || fa.Contrast != fb.Contrast {
				t.Fatalf("clip %d frame %d metadata differs", ci, fi)
			}
			if len(fa.Objects) != len(fb.Objects) {
				t.Fatalf("clip %d frame %d object counts differ", ci, fi)
			}
			for oi := range fa.Objects {
				if fa.Objects[oi] != fb.Objects[oi] {
					t.Fatalf("clip %d frame %d object %d differs", ci, fi, oi)
				}
			}
			for i := range fa.Cells {
				if fa.Cells[i] != fb.Cells[i] {
					t.Fatalf("clip %d frame %d cell float %d differs", ci, fi, i)
				}
			}
			if fa.Dataset != fb.Dataset || fa.Clip != fb.Clip || fa.Index != fb.Index {
				t.Fatalf("clip %d frame %d locator differs", ci, fi)
			}
		}
	}
}

func TestCorpusRoundtrip(t *testing.T) {
	corpus := corpusFixture(t)
	var buf bytes.Buffer
	if err := corpus.WriteCorpus(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCorpus(&buf)
	if err != nil {
		t.Fatal(err)
	}
	corporaEqual(t, corpus, got)

	// The reconstructed world must generate identically to the
	// original (same config → same transforms).
	s := Scene{Weather: Rainy, Location: Highway, Time: Night}
	fa := corpus.World.GenerateFrame(s, 1, xrand.New(5))
	fb := got.World.GenerateFrame(s, 1, xrand.New(5))
	for i := range fa.Cells {
		if fa.Cells[i] != fb.Cells[i] {
			t.Fatal("reconstructed world diverges")
		}
	}
	// Splits survive (derived from clip metadata).
	if len(corpus.Frames(Test)) != len(got.Frames(Test)) {
		t.Fatal("test split sizes differ")
	}
}

func TestCorpusFileRoundtrip(t *testing.T) {
	corpus := corpusFixture(t)
	path := filepath.Join(t.TempDir(), "corpus.anld")
	if err := SaveCorpusFile(path, corpus); err != nil {
		t.Fatal(err)
	}
	got, err := LoadCorpusFile(path)
	if err != nil {
		t.Fatal(err)
	}
	corporaEqual(t, corpus, got)
}

func TestLoadCorpusFileMissing(t *testing.T) {
	if _, err := LoadCorpusFile(filepath.Join(t.TempDir(), "nope")); err == nil {
		t.Fatal("missing file accepted")
	}
}

func TestReadCorpusBadMagic(t *testing.T) {
	if _, err := ReadCorpus(strings.NewReader("NOPEnope")); err == nil {
		t.Fatal("bad magic accepted")
	}
}

func TestReadCorpusCorruption(t *testing.T) {
	corpus := corpusFixture(t)
	var buf bytes.Buffer
	if err := corpus.WriteCorpus(&buf); err != nil {
		t.Fatal(err)
	}
	pristine := buf.Bytes()
	rng := xrand.New(901)
	for trial := 0; trial < 60; trial++ {
		data := append([]byte(nil), pristine...)
		data[rng.Intn(len(data))] ^= byte(1) << rng.Intn(8)
		if _, err := ReadCorpus(bytes.NewReader(data)); err == nil {
			t.Fatal("corruption accepted")
		}
	}
	for trial := 0; trial < 30; trial++ {
		cut := rng.Intn(len(pristine)-1) + 1
		if _, err := ReadCorpus(bytes.NewReader(pristine[:cut])); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
}

// literalFrames builds three 4-cell, 2-feature frames from literal
// values, so the encodings pinned below hold on every GOARCH.
func literalFrames() []*Frame {
	return []*Frame{
		{Scene: SceneFromIndex(0), Brightness: 0.5, Contrast: 1.25, featDim: 2,
			Objects: []Object{{Cell: 1, Class: 2, Size: 0.75}, {Cell: 3, Class: 0, Size: 1.5}},
			Cells:   []float64{0.125, -0.5, 1, 2.25, -3, 0.0625, 4.5, -0.25}},
		{Scene: SceneFromIndex(17), Brightness: -0.25, Contrast: 0.875, featDim: 2,
			Cells: []float64{1, 0, -1, 0.5, 0.25, -2, 3.75, 8}},
		{Scene: SceneFromIndex(NumScenes - 1), Brightness: 1, Contrast: 0.5, featDim: 2,
			Objects: []Object{{Cell: 0, Class: NumClasses - 1, Size: 0.25}},
			Cells:   []float64{-0.125, 0.375, 6, -7.5, 0, 1.125, -1.75, 2}},
	}
}

// literalCorpus is two clips over literalFrames in a 2×2-cell,
// 2-feature world.
func literalCorpus(tb testing.TB) *Corpus {
	tb.Helper()
	w, err := NewWorld(Config{Seed: 3, GridW: 2, GridH: 2, FeatDim: 2,
		SceneShift: 0.5, NoiseStd: 0.25, ClutterStd: 0.125, MaxObjects: 3})
	if err != nil {
		tb.Fatal(err)
	}
	fs := literalFrames()
	return &Corpus{World: w, Clips: []*Clip{
		{Dataset: 1, ID: 4, Seen: true, Frames: fs[:2]},
		{Dataset: 2, ID: 9, Frames: fs[2:]},
	}}
}

// TestCorpusBytesPinned pins the ANLD encoding byte for byte on a
// literal corpus, and that the decoder takes those bytes back to a
// corpus that encodes to them again.
func TestCorpusBytesPinned(t *testing.T) {
	var buf bytes.Buffer
	if err := literalCorpus(t).WriteCorpus(&buf); err != nil {
		t.Fatal(err)
	}
	const want = "b76f1f79c5fa0d5289b2592e3e3caeec35344aa6a4f73e9f93e209d9c3c7f5cb"
	if got := fmt.Sprintf("%x", sha256.Sum256(buf.Bytes())); got != want {
		t.Errorf("ANLD encoding sha256 %s, want %s", got, want)
	}
	back, err := ReadCorpus(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	var again bytes.Buffer
	if err := back.WriteCorpus(&again); err != nil || !bytes.Equal(again.Bytes(), buf.Bytes()) {
		t.Errorf("decoded corpus re-encodes differently (err %v)", err)
	}
}

// corpusHeader hand-assembles the 50-byte header of a corpus with the
// given geometry and no clips; checksummed appends the CRC that makes
// it a whole, valid-looking file.
func corpusHeader(gridW, gridH, featDim uint16, checksummed bool) []byte {
	b := binary.LittleEndian.AppendUint16([]byte(corpusMagic), corpusVersion)
	b = binary.LittleEndian.AppendUint64(b, 1) // seed
	b = binary.LittleEndian.AppendUint16(b, gridW)
	b = binary.LittleEndian.AppendUint16(b, gridH)
	b = binary.LittleEndian.AppendUint16(b, featDim)
	for _, v := range []float64{1, 0.2, 0.3} { // shift, noise, clutter
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
	}
	b = binary.LittleEndian.AppendUint16(b, 14) // max objects
	b = binary.LittleEndian.AppendUint32(b, 0)  // clips
	if checksummed {
		b = binary.LittleEndian.AppendUint32(b, crc32.ChecksumIEEE(b[len(corpusMagic):]))
	}
	return b
}

// TestReadCorpusBoundsAllocationByInput pins the corpus decoder against
// header-driven allocation. The world a corpus rebuilds grows as
// featDim², so a 50-byte header-only corpus at featDim 256 must not
// build it before the checksum is verified, and a checksummed header
// past the geometry caps must be refused without building it.
func TestReadCorpusBoundsAllocationByInput(t *testing.T) {
	for name, blob := range map[string][]byte{
		"unverified":  corpusHeader(8, 8, 256, false),
		"featDim cap": corpusHeader(8, 8, maxCorpusFeatDim+1, true),
		"grid cap":    corpusHeader(maxCorpusGrid+1, 8, 8, true),
	} {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		_, err := ReadCorpus(bytes.NewReader(blob))
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Fatalf("%s: corpus decoded", name)
		}
		if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
			t.Fatalf("%s: a %d-byte corpus allocated %d bytes, want < 1 MiB", name, len(blob), got)
		}
	}
}

// FuzzReadCorpus throws arbitrary bytes at the corpus decoder behind
// anole-profile -corpus and anole-dataset: it must never panic, and a
// corpus it accepts must re-encode to exactly the bytes it read.
func FuzzReadCorpus(f *testing.F) {
	var buf bytes.Buffer
	if err := literalCorpus(f).WriteCorpus(&buf); err != nil {
		f.Fatal(err)
	}
	valid := buf.Bytes()
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add(corpusHeader(8, 8, 256, false))
	f.Add(corpusHeader(8, 8, 8, true))
	f.Fuzz(func(t *testing.T, data []byte) {
		c, err := ReadCorpus(bytes.NewReader(data))
		if err != nil {
			return
		}
		var out bytes.Buffer
		if err := c.WriteCorpus(&out); err != nil {
			t.Fatalf("accepted corpus does not re-encode: %v", err)
		}
		if !bytes.Equal(out.Bytes(), data) {
			t.Fatalf("re-encode differs from accepted input:\n got %x\nwant %x", out.Bytes(), data)
		}
	})
}

// TestWriteCorpusRejectsUnreadableGeometry pins that the writer refuses
// a world the reader's geometry caps would refuse, so a saved corpus
// always loads.
func TestWriteCorpusRejectsUnreadableGeometry(t *testing.T) {
	w, err := NewWorld(Config{Seed: 1, GridW: maxCorpusGrid + 1, GridH: 1, FeatDim: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := (&Corpus{World: w}).WriteCorpus(io.Discard); err == nil {
		t.Fatal("corpus over the geometry caps written")
	}
}
