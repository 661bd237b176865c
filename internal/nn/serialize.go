package nn

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"

	"anole/internal/tensor"
)

// Binary network format:
//
//	magic   [4]byte  "ANLN"
//	version uint16   (1)
//	layers  uint16
//	per layer:
//	  kind uint8
//	  dense:       inDim uint32, outDim uint32,
//	               W row-major float64..., B float64...
//	  dense-quant: bits uint8, inDim uint32, outDim uint32,
//	               W scale float64 + int8/int16 values (int8 when
//	               bits ≤ 8), B likewise
//	crc32   uint32   (IEEE, over everything after the magic)
//
// All integers and floats are little-endian. The format is what
// internal/repo ships over the wire when devices download models.
const (
	netMagic   = "ANLN"
	netVersion = 1
)

// WriteTo serializes the frozen program to w in the binary format above.
// It returns the number of bytes written, which always equals SizeBytes.
func (wts *Weights) WriteTo(w io.Writer) (int64, error) {
	cw := &countingWriter{w: w}
	if _, err := cw.Write([]byte(netMagic)); err != nil {
		return cw.n, err
	}
	crc := crc32.NewIEEE()
	mw := io.MultiWriter(cw, crc)

	if err := writeBin(mw, uint16(netVersion), uint16(len(wts.layers))); err != nil {
		return cw.n, err
	}
	for i := range wts.layers {
		l := &wts.layers[i]
		if err := writeBin(mw, uint8(l.kind)); err != nil {
			return cw.n, err
		}
		if l.w == nil {
			continue
		}
		if l.quantBits > 0 {
			if err := writeBin(mw, uint8(l.quantBits)); err != nil {
				return cw.n, err
			}
		}
		if err := writeBin(mw, uint32(l.w.Cols), uint32(l.w.Rows)); err != nil {
			return cw.n, err
		}
		if l.quantBits > 0 {
			if err := writeQuantized(mw, l.w.Data, l.quantBits); err != nil {
				return cw.n, err
			}
			if err := writeQuantized(mw, l.b, l.quantBits); err != nil {
				return cw.n, err
			}
			continue
		}
		if err := writeFloats(mw, l.w.Data); err != nil {
			return cw.n, err
		}
		if err := writeFloats(mw, l.b); err != nil {
			return cw.n, err
		}
	}
	if err := writeBin(cw, crc.Sum32()); err != nil {
		return cw.n, err
	}
	return cw.n, nil
}

// SizeBytes returns the exact serialized length of the frozen program —
// the number WriteTo will write. This is the figure the model cache uses
// for byte-level memory accounting of resident entries.
func (wts *Weights) SizeBytes() int64 {
	n := int64(4 + 2 + 2 + 4) // magic + version + layer count + crc
	for i := range wts.layers {
		l := &wts.layers[i]
		n++ // kind
		if l.w == nil {
			continue
		}
		nw, nb := int64(len(l.w.Data)), int64(len(l.b))
		if l.quantBits > 0 {
			sz := int64(1)
			if l.quantBits > 8 {
				sz = 2
			}
			n += 1 + 8     // bits + dims
			n += 8 + nw*sz // W scale + values
			n += 8 + nb*sz // B scale + values
			continue
		}
		n += 8 + (nw+nb)*8 // dims + float64 payload
	}
	return n
}

// WriteTo serializes the network weights by freezing them first; the wire
// format is identical to (*Weights).WriteTo.
func (n *Network) WriteTo(w io.Writer) (int64, error) {
	return n.Freeze().WriteTo(w)
}

// ReadWeights deserializes a frozen program written by WriteTo, verifying
// the checksum. The result carries no training state; use Thaw to obtain
// a trainable form.
func ReadWeights(r io.Reader) (*Weights, error) {
	br := bufio.NewReader(r)
	magic := make([]byte, 4)
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, fmt.Errorf("nn: read magic: %w", err)
	}
	if string(magic) != netMagic {
		return nil, fmt.Errorf("nn: bad magic %q", magic)
	}
	crc := crc32.NewIEEE()
	tr := io.TeeReader(br, crc)

	var version, layerCount uint16
	if err := readBin(tr, &version, &layerCount); err != nil {
		return nil, fmt.Errorf("nn: read header: %w", err)
	}
	if version != netVersion {
		return nil, fmt.Errorf("nn: unsupported version %d", version)
	}
	layers := make([]wlayer, 0, layerCount)
	// Cumulative budget across layers: a stream may not claim more
	// weights in total than one layer is allowed to, or a long chain of
	// individually-plausible layers still thrashes the allocator before
	// the truncated payload runs out.
	const maxWeights = 1 << 24
	weightBudget := uint64(maxWeights)
	for i := 0; i < int(layerCount); i++ {
		var kind uint8
		if err := readBin(tr, &kind); err != nil {
			return nil, fmt.Errorf("nn: read layer %d kind: %w", i, err)
		}
		switch layerKind(kind) {
		case kindReLU:
			layers = append(layers, wlayer{kind: kindReLU})
		case kindTanh:
			layers = append(layers, wlayer{kind: kindTanh})
		case kindSigmoid:
			layers = append(layers, wlayer{kind: kindSigmoid})
		case kindDense, kindDenseQuant:
			bits := 0
			if layerKind(kind) == kindDenseQuant {
				var b uint8
				if err := readBin(tr, &b); err != nil {
					return nil, fmt.Errorf("nn: read layer %d bits: %w", i, err)
				}
				if b < 2 || b > 16 {
					return nil, fmt.Errorf("nn: layer %d has invalid quant bits %d", i, b)
				}
				bits = int(b)
			}
			var inDim, outDim uint32
			if err := readBin(tr, &inDim, &outDim); err != nil {
				return nil, fmt.Errorf("nn: read layer %d dims: %w", i, err)
			}
			const maxDim = 1 << 20
			if inDim == 0 || outDim == 0 || inDim > maxDim || outDim > maxDim {
				return nil, fmt.Errorf("nn: layer %d has implausible dims %dx%d", i, outDim, inDim)
			}
			// Bound the product too: each dimension can be plausible
			// while the weight matrix they claim together is not
			// (found by FuzzReadBundle — 2^20 × 2^20 floats is 8 TB).
			weights := uint64(inDim) * uint64(outDim)
			if weights > weightBudget {
				return nil, fmt.Errorf("nn: layer %d claims %d weights, over budget", i, weights)
			}
			weightBudget -= weights
			read := readFloats
			if bits > 0 {
				read = func(r io.Reader, n int) ([]float64, error) { return readQuantized(r, n, bits) }
			}
			data, err := read(tr, int(weights))
			if err != nil {
				return nil, fmt.Errorf("nn: read layer %d weights: %w", i, err)
			}
			bias, err := read(tr, int(outDim))
			if err != nil {
				return nil, fmt.Errorf("nn: read layer %d bias: %w", i, err)
			}
			layers = append(layers, wlayer{
				kind:      layerKind(kind),
				quantBits: bits,
				w:         &tensor.Matrix{Rows: int(outDim), Cols: int(inDim), Data: data},
				b:         bias,
			})
		default:
			return nil, fmt.Errorf("nn: unknown layer kind %d", kind)
		}
	}
	wantCRC := crc.Sum32()
	var gotCRC uint32
	if err := readBin(br, &gotCRC); err != nil {
		return nil, fmt.Errorf("nn: read checksum: %w", err)
	}
	if gotCRC != wantCRC {
		return nil, fmt.Errorf("nn: checksum mismatch: stored %08x, computed %08x", gotCRC, wantCRC)
	}
	// Validate adjacent dense dimensions before compiling the program;
	// untrusted streams must fail with an error, not a panic.
	lastOut := 0
	for i := range layers {
		if layers[i].w == nil {
			continue
		}
		if lastOut != 0 && layers[i].w.Cols != lastOut {
			return nil, fmt.Errorf("nn: layer %d expects input dim %d but previous layer outputs %d", i, layers[i].w.Cols, lastOut)
		}
		lastOut = layers[i].w.Rows
	}
	return newWeights(layers), nil
}

type countingWriter struct {
	w io.Writer
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}

func writeBin(w io.Writer, vs ...interface{}) error {
	for _, v := range vs {
		if err := binary.Write(w, binary.LittleEndian, v); err != nil {
			return err
		}
	}
	return nil
}

func readBin(r io.Reader, vs ...interface{}) error {
	for _, v := range vs {
		if err := binary.Read(r, binary.LittleEndian, v); err != nil {
			return err
		}
	}
	return nil
}

func writeFloats(w io.Writer, xs []float64) error {
	buf := make([]byte, 8*len(xs))
	for i, x := range xs {
		binary.LittleEndian.PutUint64(buf[i*8:], math.Float64bits(x))
	}
	_, err := w.Write(buf)
	return err
}

// writeQuantized stores xs as scale + integers: the values must already
// lie on the symmetric grid produced by Quantize, so v/scale is integral.
func writeQuantized(w io.Writer, xs []float64, bits int) error {
	scale := quantScale(xs, bits)
	if err := writeBin(w, scale); err != nil {
		return err
	}
	wide := bits > 8
	size := 1
	if wide {
		size = 2
	}
	buf := make([]byte, size*len(xs))
	for i, x := range xs {
		var q int64
		if scale != 0 {
			q = int64(math.Round(x / scale))
		}
		if wide {
			binary.LittleEndian.PutUint16(buf[i*2:], uint16(int16(q)))
		} else {
			buf[i] = byte(int8(q))
		}
	}
	_, err := w.Write(buf)
	return err
}

// readChunk is how many values readValues stages at a time. A layer's
// dims come from the input's header, so its values are read a chunk at
// a time: memory grows with the bytes actually delivered, never with
// what a header claims.
const readChunk = 4096

// readValues reads n values of size bytes each, decoding each with
// decode.
func readValues(r io.Reader, n, size int, decode func([]byte) float64) ([]float64, error) {
	xs := make([]float64, 0, min(n, readChunk))
	buf := make([]byte, size*min(n, readChunk))
	for len(xs) < n {
		chunk := buf[:size*min(n-len(xs), readChunk)]
		if _, err := io.ReadFull(r, chunk); err != nil {
			return nil, err
		}
		for i := 0; i < len(chunk); i += size {
			xs = append(xs, decode(chunk[i:]))
		}
	}
	return xs, nil
}

// readQuantized reads n values stored by writeQuantized.
func readQuantized(r io.Reader, n, bits int) ([]float64, error) {
	var scale float64
	if err := readBin(r, &scale); err != nil {
		return nil, err
	}
	if bits > 8 {
		return readValues(r, n, 2, func(b []byte) float64 {
			return float64(int64(int16(binary.LittleEndian.Uint16(b)))) * scale
		})
	}
	return readValues(r, n, 1, func(b []byte) float64 { return float64(int64(int8(b[0]))) * scale })
}

// readFloats reads n little-endian float64s.
func readFloats(r io.Reader, n int) ([]float64, error) {
	return readValues(r, n, 8, func(b []byte) float64 { return math.Float64frombits(binary.LittleEndian.Uint64(b)) })
}
