package codec

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"testing"
)

// record writes one of every field kind.
func record(w io.Writer) (int64, error) {
	cw := NewWriter(w, "TEST")
	cw.Uint8(0xAB)
	cw.Uint16(0xBEEF)
	cw.Uint32(0xDEADBEEF)
	cw.Uint64(math.MaxUint64 - 1)
	cw.Float64(-0.375)
	cw.Float64s([]float64{1, math.Inf(-1), math.Copysign(0, -1)})
	cw.Floats([]float64{-3, 7}, 1, func(b []byte, x float64) { b[0] = byte(int8(x)) })
	cw.String16("hello")
	cw.Blob([]byte{9, 8, 7})
	err := cw.Close()
	return cw.N(), err
}

func TestRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	n, err := record(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(buf.Len()) {
		t.Fatalf("N = %d, wrote %d bytes", n, buf.Len())
	}
	r := NewReader(bytes.NewReader(buf.Bytes()), "TEST")
	if v := r.Uint8(); v != 0xAB {
		t.Errorf("Uint8 = %#x", v)
	}
	if v := r.Uint16(); v != 0xBEEF {
		t.Errorf("Uint16 = %#x", v)
	}
	if v := r.Uint32(); v != 0xDEADBEEF {
		t.Errorf("Uint32 = %#x", v)
	}
	if v := r.Uint64(); v != math.MaxUint64-1 {
		t.Errorf("Uint64 = %#x", v)
	}
	if v := r.Float64(); v != -0.375 {
		t.Errorf("Float64 = %v", v)
	}
	if xs := r.Float64s(3); len(xs) != 3 || xs[0] != 1 || !math.IsInf(xs[1], -1) || !math.Signbit(xs[2]) {
		t.Errorf("Float64s = %v", xs)
	}
	if xs := r.Floats(2, 1, func(b []byte) float64 { return float64(int8(b[0])) }); len(xs) != 2 || xs[0] != -3 || xs[1] != 7 {
		t.Errorf("Floats = %v", xs)
	}
	if s := r.String16(5); s != "hello" {
		t.Errorf("String16 = %q", s)
	}
	if b := r.Blob(3); !bytes.Equal(b, []byte{9, 8, 7}) {
		t.Errorf("Blob = %v", b)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestReaderRejectsDamage pins the framing checks: a wrong magic, every
// truncation, every single-byte flip and a trailing byte are errors.
func TestReaderRejectsDamage(t *testing.T) {
	var buf bytes.Buffer
	if _, err := record(&buf); err != nil {
		t.Fatal(err)
	}
	valid := buf.Bytes()
	read := func(data []byte) error {
		r := NewReader(bytes.NewReader(data), "TEST")
		r.Uint8()
		r.Uint16()
		r.Uint32()
		r.Uint64()
		r.Float64()
		r.Float64s(3)
		r.Floats(2, 1, func(b []byte) float64 { return float64(int8(b[0])) })
		r.String16(5)
		r.Blob(3)
		return r.Close()
	}
	if err := read(valid); err != nil {
		t.Fatal(err)
	}
	for cut := 0; cut < len(valid); cut++ {
		if read(valid[:cut]) == nil {
			t.Fatalf("truncation at %d bytes accepted", cut)
		}
	}
	for i := range valid {
		damaged := append([]byte(nil), valid...)
		damaged[i] ^= 0x10
		if read(damaged) == nil {
			t.Fatalf("flip of byte %d accepted", i)
		}
	}
	if read(append(append([]byte(nil), valid...), 0)) == nil {
		t.Fatal("trailing byte accepted")
	}
}

// TestReaderStickyError pins that reads after the first error return
// zero values and Close reports that first error.
func TestReaderStickyError(t *testing.T) {
	r := NewReader(bytes.NewReader([]byte("TEST\x01")), "TEST")
	r.Uint16()
	first := r.Err()
	if !errors.Is(first, io.ErrUnexpectedEOF) {
		t.Fatalf("short read error = %v", first)
	}
	if r.Uint8() != 0 || r.Uint64() != 0 || r.Float64s(2) != nil || r.String16(9) != "" || r.Blob(9) != nil {
		t.Fatal("read after an error returned data")
	}
	if err := r.Close(); err != first {
		t.Fatalf("Close = %v, want the first error %v", err, first)
	}
}

// TestReaderBoundsAllocationByInput pins that lengths read from the
// input never allocate ahead of the bytes behind them: a float count,
// a string length over its limit and a blob length, each followed by
// nothing.
func TestReaderBoundsAllocationByInput(t *testing.T) {
	for name, tc := range map[string]struct {
		n    uint64
		read func(*Reader)
	}{
		"floats": {1 << 28, func(r *Reader) { r.Float64s(int(r.Uint64())) }},
		"string": {math.MaxUint16, func(r *Reader) { r.String16(16) }},
		"blob":   {1 << 28, func(r *Reader) { r.Blob(1 << 30) }},
	} {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		r := NewReader(bytes.NewReader(binary.LittleEndian.AppendUint64([]byte("TEST"), tc.n)), "TEST")
		tc.read(r)
		runtime.ReadMemStats(&after)
		if r.Close() == nil {
			t.Fatalf("%s: empty payload accepted", name)
		}
		if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
			t.Fatalf("%s: allocated %d bytes, want < 1 MiB", name, got)
		}
	}
}

func TestWriterLimits(t *testing.T) {
	cw := NewWriter(io.Discard, "TEST")
	cw.String16(string(make([]byte, math.MaxUint16+1)))
	if cw.Close() == nil {
		t.Fatal("string over a uint16 length written")
	}
	r := NewReader(bytes.NewReader(binary.LittleEndian.AppendUint64([]byte("TEST"), 0)), "TEST")
	if r.Blob(8); r.Err() == nil {
		t.Fatal("empty blob accepted")
	}
}

// TestSaveFile pins the atomic save: the file appears whole, and a
// failed save keeps the previous file and leaves no temp file behind.
func TestSaveFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "f.bin")
	write := func(w io.Writer) error { _, err := record(w); return err }
	if err := SaveFile(path, write); err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if _, err := record(&want); err != nil {
		t.Fatal(err)
	}
	failed := errors.New("encode failed")
	if err := SaveFile(path, func(w io.Writer) error { w.Write([]byte("partial")); return failed }); !errors.Is(err, failed) {
		t.Fatalf("failed save returned %v", err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want.Bytes()) {
		t.Fatal("saved file differs from the record")
	}
	if entries, err := os.ReadDir(dir); err != nil || len(entries) != 1 {
		t.Fatalf("directory holds %d entries after a failed save (err %v)", len(entries), err)
	}
}
