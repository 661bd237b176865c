package pressure

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"
)

func sampleCheckpoint() *Checkpoint {
	return &Checkpoint{
		Generation: 7,
		Markov: &MarkovState{
			N:      3,
			Alpha:  0.5,
			Obs:    42,
			Counts: []float64{0, 1, 2, 3, 4, 5, 6, 7, 8},
			RowSum: []float64{3, 12, 21},
		},
		Cache: []CacheEntry{
			{Key: "M_1", Freq: 9},
			{Key: "M_4", Freq: 2},
		},
		Drift: []DriftWindow{
			{Stream: 0, Count: 5, SumEntropy: 1.25, SumNovelty: 0.5,
				Probes: 2, Disagreed: 1, Cooldown: 3, Seen: 100, Flagged: 4, Emitted: 1},
			{Stream: 1, Seen: 7},
		},
		Fleet: []string{"nano", "tx2"},
	}
}

func encode(t testing.TB, c *Checkpoint) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteCheckpoint(&buf, c); err != nil {
		t.Fatalf("WriteCheckpoint: %v", err)
	}
	return buf.Bytes()
}

func TestCheckpointRoundTrip(t *testing.T) {
	want := sampleCheckpoint()
	got, err := ReadCheckpoint(bytes.NewReader(encode(t, want)))
	if err != nil {
		t.Fatalf("ReadCheckpoint: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, want)
	}
}

func TestCheckpointRoundTripNoMarkov(t *testing.T) {
	want := &Checkpoint{Generation: 1}
	got, err := ReadCheckpoint(bytes.NewReader(encode(t, want)))
	if err != nil {
		t.Fatalf("ReadCheckpoint: %v", err)
	}
	if got.Markov != nil {
		t.Fatal("markov materialized from nothing")
	}
	if got.Generation != 1 || len(got.Cache) != 0 || len(got.Drift) != 0 {
		t.Fatalf("round trip mismatch: %+v", got)
	}
}

func TestWriteCheckpointRejectsMalformed(t *testing.T) {
	var buf bytes.Buffer
	cases := map[string]*Checkpoint{
		"nil":             nil,
		"markov geometry": {Markov: &MarkovState{N: 2, Counts: []float64{1}, RowSum: []float64{1, 1}}},
		"markov dim":      {Markov: &MarkovState{N: -1}},
		"empty key":       {Cache: []CacheEntry{{Key: "", Freq: 1}}},
		"negative freq":   {Cache: []CacheEntry{{Key: "m", Freq: -1}}},
		"negative drift":  {Drift: []DriftWindow{{Stream: -1}}},
		"empty class":     {Fleet: []string{"nano", ""}},
	}
	for name, c := range cases {
		buf.Reset()
		if err := WriteCheckpoint(&buf, c); err == nil {
			t.Errorf("%s: WriteCheckpoint accepted malformed checkpoint", name)
		}
	}
}

func TestReadCheckpointRejectsDamage(t *testing.T) {
	blob := encode(t, sampleCheckpoint())
	damage := map[string][]byte{
		"empty":       {},
		"bad magic":   append([]byte("XXXX"), blob[4:]...),
		"truncated":   blob[:len(blob)/2],
		"missing crc": blob[:len(blob)-2],
		"bit flip": func() []byte {
			out := append([]byte(nil), blob...)
			out[len(out)/2] ^= 0x01
			return out
		}(),
		"version skew": func() []byte {
			out := append([]byte(nil), blob...)
			out[4] = 99
			return out
		}(),
		"trailing garbage": append(append([]byte(nil), blob...), 0xFF),
	}
	for name, b := range damage {
		if _, err := ReadCheckpoint(bytes.NewReader(b)); err == nil {
			t.Errorf("%s: ReadCheckpoint accepted damaged input", name)
		}
	}
}

// TestReadCheckpointVersion1 hand-assembles a minimal version-1 stream
// (no fleet section) and checks it still reads: Fleet comes back nil,
// so the core-level layout guard lets it restore anywhere.
func TestReadCheckpointVersion1(t *testing.T) {
	var body bytes.Buffer
	if err := binWrite(&body,
		uint16(1), // version 1: fleet section absent
		uint64(5), // generation
		uint8(0),  // no markov
		uint32(1), // one cache entry
		uint16(3)); err != nil {
		t.Fatal(err)
	}
	body.WriteString("M_2")
	if err := binWrite(&body,
		uint32(4),               // freq
		uint32(0)); err != nil { // no drift windows
		t.Fatal(err)
	}
	var blob bytes.Buffer
	blob.WriteString(checkpointMagic)
	blob.Write(body.Bytes())
	if err := binWrite(&blob, crc32.ChecksumIEEE(body.Bytes())); err != nil {
		t.Fatal(err)
	}

	got, err := ReadCheckpoint(bytes.NewReader(blob.Bytes()))
	if err != nil {
		t.Fatalf("version-1 checkpoint unreadable: %v", err)
	}
	if got.Generation != 5 || len(got.Cache) != 1 || got.Cache[0].Key != "M_2" {
		t.Fatalf("version-1 decode mismatch: %+v", got)
	}
	if got.Fleet != nil {
		t.Fatalf("version-1 checkpoint grew a fleet section: %v", got.Fleet)
	}
}

func TestSaveLoadCheckpoint(t *testing.T) {
	path := filepath.Join(t.TempDir(), "anole.ckpt")
	want := sampleCheckpoint()
	if err := SaveCheckpoint(path, want); err != nil {
		t.Fatalf("SaveCheckpoint: %v", err)
	}
	got, err := LoadCheckpoint(path)
	if err != nil {
		t.Fatalf("LoadCheckpoint: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("save/load mismatch:\n got %+v\nwant %+v", got, want)
	}
	// A failed save must not leave temp litter next to the checkpoint.
	if err := SaveCheckpoint(path, nil); err == nil {
		t.Fatal("SaveCheckpoint accepted a nil checkpoint")
	}
	entries, err := os.ReadDir(filepath.Dir(path))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("temp litter after failed save: %v", entries)
	}
	if _, err := LoadCheckpoint(filepath.Join(t.TempDir(), "missing")); err == nil {
		t.Fatal("LoadCheckpoint read a missing file")
	}
}

// FuzzReadCheckpoint asserts the decoder's contract under arbitrary
// damage: it may reject, but it must never panic, and whatever it does
// accept must be internally consistent — finite, within bounds, and
// bit-for-bit re-encodable (no partial restore).
// TestReadCheckpointBoundsAllocationByInput pins the checkpoint decoder
// against header-driven allocation: a checkpoint a few dozen bytes long
// whose header claims the largest Markov matrix, cache manifest or drift
// section and carries none of it must not make ReadCheckpoint allocate
// what the header claims before it finds the data missing.
func TestReadCheckpointBoundsAllocationByInput(t *testing.T) {
	header := binary.LittleEndian.AppendUint16([]byte(checkpointMagic), checkpointVersion)
	header = binary.LittleEndian.AppendUint64(header, 1) // generation
	markov := append(append([]byte(nil), header...), 1)
	markov = binary.LittleEndian.AppendUint32(markov, maxMarkovModels)
	markov = binary.LittleEndian.AppendUint64(markov, math.Float64bits(0.5)) // alpha
	markov = binary.LittleEndian.AppendUint64(markov, 0)                     // observations
	cache := append(append([]byte(nil), header...), 0)
	cache = binary.LittleEndian.AppendUint32(cache, maxCacheEntries)
	drift := binary.LittleEndian.AppendUint32(append(append([]byte(nil), header...), 0), 0)
	drift = binary.LittleEndian.AppendUint32(drift, maxDriftWindows)
	for name, blob := range map[string][]byte{"markov": markov, "cache": cache, "drift": drift} {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		_, err := ReadCheckpoint(bytes.NewReader(blob))
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Fatalf("%s: checkpoint with no section data decoded", name)
		}
		if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
			t.Fatalf("%s: a %d-byte checkpoint allocated %d bytes, want < 1 MiB", name, len(blob), got)
		}
	}
}

func FuzzReadCheckpoint(f *testing.F) {
	f.Add(encode(f, sampleCheckpoint()))
	f.Add(encode(f, &Checkpoint{}))
	f.Add(encode(f, &Checkpoint{
		Generation: math.MaxUint64,
		Markov:     &MarkovState{N: 1, Counts: []float64{0}, RowSum: []float64{0}},
		Cache:      []CacheEntry{{Key: "k", Freq: 0}},
	}))
	blob := encode(f, sampleCheckpoint())
	f.Add(blob[:len(blob)-5])
	f.Add(append([]byte("ANLC"), 1, 0))
	f.Fuzz(func(t *testing.T, data []byte) {
		c, err := ReadCheckpoint(bytes.NewReader(data))
		if err != nil {
			if c != nil {
				t.Fatal("error with partial checkpoint returned")
			}
			return
		}
		var buf bytes.Buffer
		if err := WriteCheckpoint(&buf, c); err != nil {
			t.Fatalf("accepted checkpoint does not re-encode: %v", err)
		}
		// Accepted version-1 inputs re-encode at the current version
		// (fleet section appended), so byte equality only holds for
		// current-version inputs; older ones get the weaker idempotence
		// check below.
		if len(data) >= 6 && data[4] == checkpointVersion && data[5] == 0 &&
			!bytes.Equal(buf.Bytes(), data) {
			t.Fatalf("re-encode differs from accepted input:\n got %x\nwant %x", buf.Bytes(), data)
		}
		c2, err := ReadCheckpoint(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("re-encoded checkpoint unreadable: %v", err)
		}
		if !reflect.DeepEqual(c2, c) {
			t.Fatalf("decode∘encode not idempotent:\n got %+v\nwant %+v", c2, c)
		}
	})
}

// TestCheckpointBytesPinned pins the ANLC encoding byte for byte: the
// literal sampleCheckpoint (Markov, cache, drift and fleet sections)
// must encode to the recorded version-2 digest, and a recorded
// version-1 file (no fleet section) must decode to the same state with
// Fleet nil.
func TestCheckpointBytesPinned(t *testing.T) {
	const wantV2 = "4c3223df48034b246e77ad8defd3970b1e38687b314d8accc7531f43aff2282d"
	if got := fmt.Sprintf("%x", sha256.Sum256(encode(t, sampleCheckpoint()))); got != wantV2 {
		t.Errorf("ANLC v2 encoding sha256 %s, want %s", got, wantV2)
	}
	v1, err := hex.DecodeString("" +
		"414e4c43010007000000000000000103000000000000000000e03f2a00000000" +
		"0000000000000000000000000000000000f03f00000000000000400000000000" +
		"0008400000000000001040000000000000144000000000000018400000000000" +
		"001c400000000000002040000000000000084000000000000028400000000000" +
		"0035400200000003004d5f310900000003004d5f340200000002000000000000" +
		"0005000000000000000000f43f000000000000e03f02000000000000000000f0" +
		"3f03000000640000000000000004000000000000000100000000000000010000" +
		"0000000000000000000000000000000000000000000000000000000000000000" +
		"00000000000700000000000000000000000000000000000000000000001785df" +
		"6b")
	if err != nil {
		t.Fatal(err)
	}
	got, err := ReadCheckpoint(bytes.NewReader(v1))
	if err != nil {
		t.Fatalf("recorded version-1 checkpoint unreadable: %v", err)
	}
	want := sampleCheckpoint()
	want.Fleet = nil
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("version-1 decode mismatch:\n got %+v\nwant %+v", got, want)
	}
}

// binWrite writes vs little-endian, for hand-assembling test streams.
func binWrite(w io.Writer, vs ...any) error {
	for _, v := range vs {
		if err := binary.Write(w, binary.LittleEndian, v); err != nil {
			return err
		}
	}
	return nil
}
