package synth

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"testing"

	"anole/internal/xrand"
)

// packFixture generates n frames across mixed scenes from one world.
func packFixture(t *testing.T, n int) []*Frame {
	t.Helper()
	w := testWorld(t, 3)
	rng := xrand.NewLabeled(3, "framepack-test")
	frames := make([]*Frame, n)
	for i := range frames {
		frames[i] = w.GenerateFrame(SceneFromIndex(i%NumScenes), 1, rng)
	}
	return frames
}

// TestFramePackRoundTrip pins the drift-report wire format: everything a
// retrain needs — scene labels, ground-truth objects, the feature grid
// and illumination scalars — survives the encode/decode round trip.
func TestFramePackRoundTrip(t *testing.T) {
	frames := packFixture(t, 7)
	var buf bytes.Buffer
	if err := EncodeFramesTrace(&buf, frames, ""); err != nil {
		t.Fatal(err)
	}
	got, _, err := DecodeFramesTrace(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(frames) {
		t.Fatalf("decoded %d frames, want %d", len(got), len(frames))
	}
	for i, g := range got {
		f := frames[i]
		if g.Scene != f.Scene {
			t.Fatalf("frame %d scene %v, want %v", i, g.Scene, f.Scene)
		}
		if g.NumCells() != f.NumCells() || g.FeatDim() != f.FeatDim() {
			t.Fatalf("frame %d geometry %d×%d, want %d×%d",
				i, g.NumCells(), g.FeatDim(), f.NumCells(), f.FeatDim())
		}
		if g.Brightness != f.Brightness || g.Contrast != f.Contrast {
			t.Fatalf("frame %d illumination (%v, %v), want (%v, %v)",
				i, g.Brightness, g.Contrast, f.Brightness, f.Contrast)
		}
		for j, c := range g.Cells {
			if c != f.Cells[j] {
				t.Fatalf("frame %d cell value %d diverged", i, j)
			}
		}
		if len(g.Objects) != len(f.Objects) {
			t.Fatalf("frame %d has %d objects, want %d", i, len(g.Objects), len(f.Objects))
		}
		for j, o := range g.Objects {
			if o != f.Objects[j] {
				t.Fatalf("frame %d object %d = %+v, want %+v", i, j, o, f.Objects[j])
			}
		}
		// Provenance does not travel; the pack re-indexes.
		if g.Index != i {
			t.Fatalf("frame %d re-indexed to %d", i, g.Index)
		}
	}
}

// TestFramePackEncodeRejects pins the encoder's input contract: no empty
// packs, no nil frames, one geometry per pack.
func TestFramePackEncodeRejects(t *testing.T) {
	var buf bytes.Buffer
	if err := EncodeFramesTrace(&buf, nil, ""); err == nil {
		t.Fatal("empty pack encoded")
	}
	frames := packFixture(t, 2)
	if err := EncodeFramesTrace(&buf, []*Frame{frames[0], nil}, ""); err == nil {
		t.Fatal("nil frame encoded")
	}
	// A frame from a world with a different feature dimension must not
	// share a pack.
	cfg := DefaultConfig(4)
	cfg.FeatDim++
	w2, err := NewWorld(cfg)
	if err != nil {
		t.Fatal(err)
	}
	alien := w2.GenerateFrame(SceneFromIndex(0), 1, xrand.NewLabeled(4, "framepack-test-alien"))
	if err := EncodeFramesTrace(&buf, []*Frame{frames[0], alien}, ""); err == nil {
		t.Fatal("mixed-geometry pack encoded")
	}
}

// TestFramePackDecodeRejectsDamage pins the integrity checks a drift
// report's exemplars travel under: bad magic, unknown version, payload
// corruption and truncation are all detected, never decoded.
func TestFramePackDecodeRejectsDamage(t *testing.T) {
	frames := packFixture(t, 4)
	var buf bytes.Buffer
	if err := EncodeFramesTrace(&buf, frames, ""); err != nil {
		t.Fatal(err)
	}
	pack := buf.Bytes()

	damage := func(mutate func([]byte)) error {
		cp := append([]byte(nil), pack...)
		mutate(cp)
		_, _, err := DecodeFramesTrace(bytes.NewReader(cp))
		return err
	}

	if err := damage(func(b []byte) { b[0] ^= 0xFF }); err == nil {
		t.Fatal("bad magic decoded")
	}
	if err := damage(func(b []byte) { b[4] ^= 0xFF }); err == nil {
		t.Fatal("unknown version decoded")
	}
	// Flip one payload byte mid-pack: either the frame parse or the
	// trailing CRC must catch it.
	if err := damage(func(b []byte) { b[len(b)/2] ^= 0x01 }); err == nil {
		t.Fatal("corrupted payload decoded")
	}
	if err := damage(func(b []byte) { b[len(b)-2] ^= 0x01 }); err == nil {
		t.Fatal("checksum tamper decoded")
	}
	if _, _, err := DecodeFramesTrace(bytes.NewReader(pack[:len(pack)-3])); err == nil {
		t.Fatal("truncated pack decoded")
	}
	if _, _, err := DecodeFramesTrace(bytes.NewReader(nil)); err == nil {
		t.Fatal("empty input decoded")
	}
}

// TestFramePackBytesPinned pins the ANLF encoding byte for byte on
// literal frames, untraced (version 1) and traced (version 2), and that
// each decodes back to the same frames and trace.
func TestFramePackBytesPinned(t *testing.T) {
	for _, tc := range []struct{ trace, want string }{
		{"", "bcb4f4451831530afa2cd83986fe2f8eac99d8aa27f4340df77fb098ee46966e"},
		{"d3.17", "a78bfaa39fcd34d35d93cea30b9a8c2c4c30b709aca3ddcc157d2bf4b069ecff"},
	} {
		var buf bytes.Buffer
		if err := EncodeFramesTrace(&buf, literalFrames(), tc.trace); err != nil {
			t.Fatal(err)
		}
		if got := fmt.Sprintf("%x", sha256.Sum256(buf.Bytes())); got != tc.want {
			t.Errorf("trace %q: ANLF encoding sha256 %s, want %s", tc.trace, got, tc.want)
		}
		frames, trace, err := DecodeFramesTrace(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		var again bytes.Buffer
		if err := EncodeFramesTrace(&again, frames, trace); err != nil || !bytes.Equal(again.Bytes(), buf.Bytes()) {
			t.Errorf("trace %q: decoded pack re-encodes differently (err %v)", tc.trace, err)
		}
	}
}
