// Package codec frames the repository's binary formats: the network
// (ANLN), bundle (ANLB), checkpoint (ANLC), corpus (ANLD) and frame-pack
// (ANLF) files all share one framing rule, and this package owns it.
//
//	magic  [4]byte   (the format's name)
//	body   ...       (little-endian fields; the format's own layout)
//	crc32  uint32    (IEEE, over the body: everything after the magic)
//
// A Writer and a Reader carry the first error they meet and turn every
// later call into a no-op, so a format reads or writes a run of fields
// and checks once. The Reader never lets a length read from the input
// allocate ahead of the bytes that back it, and a record is accepted
// only when its checksum matches and no byte follows it. Layouts,
// versions and plausibility bounds stay in each format's package.
package codec

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"
)

// chunk is how many values Floats moves through its staging buffer at
// a time: a count taken from a header then costs memory only as the
// bytes behind it arrive.
const chunk = 4096

// Writer writes one framed record.
type Writer struct {
	w   io.Writer
	crc hash.Hash32
	n   int64
	err error
	tmp [8]byte
}

// NewWriter starts a record on w by writing magic.
func NewWriter(w io.Writer, magic string) *Writer {
	cw := &Writer{w: w, crc: crc32.NewIEEE()}
	cw.write([]byte(magic))
	return cw
}

func (w *Writer) write(p []byte) {
	if w.err != nil {
		return
	}
	n, err := w.w.Write(p)
	w.n += int64(n)
	w.err = err
}

// body writes p as part of the record's body, which the checksum covers.
func (w *Writer) body(p []byte) {
	w.write(p)
	w.crc.Write(p)
}

// Uint8 writes v.
func (w *Writer) Uint8(v uint8) { w.body(append(w.tmp[:0], v)) }

// Uint16 writes v.
func (w *Writer) Uint16(v uint16) { w.body(binary.LittleEndian.AppendUint16(w.tmp[:0], v)) }

// Uint32 writes v.
func (w *Writer) Uint32(v uint32) { w.body(binary.LittleEndian.AppendUint32(w.tmp[:0], v)) }

// Uint64 writes v.
func (w *Writer) Uint64(v uint64) { w.body(binary.LittleEndian.AppendUint64(w.tmp[:0], v)) }

// Float64 writes v's IEEE-754 bits.
func (w *Writer) Float64(v float64) { w.Uint64(math.Float64bits(v)) }

// Float64s writes xs as consecutive float64s.
func (w *Writer) Float64s(xs []float64) { w.Floats(xs, 8, putFloat64) }

// Floats writes each of xs as size bytes encoded by put.
func (w *Writer) Floats(xs []float64, size int, put func(b []byte, x float64)) {
	buf := make([]byte, size*min(len(xs), chunk))
	for len(xs) > 0 && w.err == nil {
		n := min(len(xs), chunk)
		for i, x := range xs[:n] {
			put(buf[i*size:], x)
		}
		w.body(buf[:n*size])
		xs = xs[n:]
	}
}

// String16 writes s as a uint16 length and its bytes.
func (w *Writer) String16(s string) {
	if len(s) > math.MaxUint16 && w.err == nil {
		w.err = fmt.Errorf("string of %d bytes exceeds a uint16 length", len(s))
	}
	w.Uint16(uint16(len(s)))
	w.body([]byte(s))
}

// Blob writes p as a uint64 length and its bytes.
func (w *Writer) Blob(p []byte) {
	w.Uint64(uint64(len(p)))
	w.body(p)
}

// N returns the number of bytes written so far, magic and checksum
// included.
func (w *Writer) N() int64 { return w.n }

// Close ends the record with its checksum and returns the first error
// met. It does not close the underlying writer.
func (w *Writer) Close() error {
	w.write(binary.LittleEndian.AppendUint32(w.tmp[:0], w.crc.Sum32()))
	return w.err
}

// Reader reads one framed record. After its first error every read
// returns zero values; Err reports the error and Close returns it.
type Reader struct {
	br  *bufio.Reader
	src io.Reader // br, feeding the checksum
	crc hash.Hash32
	err error
	tmp [8]byte
}

// NewReader starts reading a record from r and checks its magic.
func NewReader(r io.Reader, magic string) *Reader {
	br := bufio.NewReader(r)
	crc := crc32.NewIEEE()
	cr := &Reader{br: br, src: io.TeeReader(br, crc), crc: crc}
	got := make([]byte, len(magic))
	if _, err := io.ReadFull(br, got); err != nil {
		cr.err = fmt.Errorf("read magic: %w", err)
	} else if string(got) != magic {
		cr.err = fmt.Errorf("bad magic %q, want %q", got, magic)
	}
	return cr
}

// Err returns the first error met so far.
func (r *Reader) Err() error { return r.err }

// fill reads len(p) bytes into p, or zeroes p once an error is met.
func (r *Reader) fill(p []byte) []byte {
	if r.err == nil {
		_, r.err = io.ReadFull(r.src, p)
	}
	if r.err != nil {
		clear(p)
	}
	return p
}

// Uint8 reads a uint8.
func (r *Reader) Uint8() uint8 { return r.fill(r.tmp[:1])[0] }

// Uint16 reads a uint16.
func (r *Reader) Uint16() uint16 { return binary.LittleEndian.Uint16(r.fill(r.tmp[:2])) }

// Uint32 reads a uint32.
func (r *Reader) Uint32() uint32 { return binary.LittleEndian.Uint32(r.fill(r.tmp[:4])) }

// Uint64 reads a uint64.
func (r *Reader) Uint64() uint64 { return binary.LittleEndian.Uint64(r.fill(r.tmp[:8])) }

// Float64 reads a float64 from its IEEE-754 bits.
func (r *Reader) Float64() float64 { return math.Float64frombits(r.Uint64()) }

// Float64s reads n consecutive float64s.
func (r *Reader) Float64s(n int) []float64 {
	return r.Floats(n, 8, func(b []byte) float64 { return math.Float64frombits(binary.LittleEndian.Uint64(b)) })
}

// Floats reads n values of size bytes each, decoding each with decode.
// It returns nil once an error is met. n may come from the input: the
// result grows a chunk at a time with the bytes actually delivered.
func (r *Reader) Floats(n, size int, decode func([]byte) float64) []float64 {
	if r.err != nil {
		return nil
	}
	xs := make([]float64, 0, min(n, chunk))
	buf := make([]byte, size*min(n, chunk))
	for len(xs) < n && r.err == nil {
		b := r.fill(buf[:size*min(n-len(xs), chunk)])
		for i := 0; i < len(b); i += size {
			xs = append(xs, decode(b[i:]))
		}
	}
	if r.err != nil {
		return nil
	}
	return xs
}

// String16 reads a uint16 length and that many bytes. A length over
// limit is an error.
func (r *Reader) String16(limit int) string {
	n := int(r.Uint16())
	if n > limit && r.err == nil {
		r.err = fmt.Errorf("string of %d bytes exceeds limit %d", n, limit)
	}
	if r.err != nil {
		return ""
	}
	return string(r.fill(make([]byte, n)))
}

// Blob reads a uint64 length and that many bytes. A length of zero or
// over limit is an error.
func (r *Reader) Blob(limit uint64) []byte {
	n := r.Uint64()
	if (n == 0 || n > limit) && r.err == nil {
		r.err = fmt.Errorf("implausible blob size %d", n)
	}
	if r.err != nil {
		return nil
	}
	// Copy incrementally rather than allocating n bytes up front: a
	// corrupted length on a truncated stream then fails at EOF
	// without committing the claimed allocation.
	var buf bytes.Buffer
	if _, r.err = io.CopyN(&buf, r.src, int64(n)); r.err != nil {
		return nil
	}
	return buf.Bytes()
}

// Close reads the record's checksum, verifies it, and makes sure no
// byte follows; it returns the first error met. Every caller hands the
// decoder a whole file or an exact slice, so trailing bytes mean the
// input is not what was written. Close does not close the underlying
// reader.
func (r *Reader) Close() error {
	if r.err != nil {
		return r.err
	}
	want := r.crc.Sum32()
	var b [4]byte
	if _, err := io.ReadFull(r.br, b[:]); err != nil {
		return fmt.Errorf("read checksum: %w", err)
	}
	if got := binary.LittleEndian.Uint32(b[:]); got != want {
		return fmt.Errorf("checksum mismatch: stored %08x, computed %08x", got, want)
	}
	if _, err := r.br.ReadByte(); err != io.EOF {
		return errors.New("trailing data after checksum")
	}
	return nil
}

// SaveFile writes a file atomically: write fills a buffered temp file
// in path's directory, which is flushed, synced and renamed over path,
// so a crash leaves the previous file or the new one, never a torn one.
// A failed save leaves no temp file behind.
func SaveFile(path string, write func(io.Writer) error) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name())
	bw := bufio.NewWriter(tmp)
	err = write(bw)
	if err == nil {
		err = bw.Flush()
	}
	if err == nil {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	return os.Rename(tmp.Name(), path)
}

func putFloat64(b []byte, x float64) { binary.LittleEndian.PutUint64(b, math.Float64bits(x)) }
