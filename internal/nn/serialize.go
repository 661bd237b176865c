package nn

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"anole/internal/codec"
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
	cw := codec.NewWriter(w, netMagic)
	cw.Uint16(netVersion)
	cw.Uint16(uint16(len(wts.layers)))
	for i := range wts.layers {
		l := &wts.layers[i]
		cw.Uint8(uint8(l.kind))
		if l.w == nil {
			continue
		}
		if l.quantBits > 0 {
			cw.Uint8(uint8(l.quantBits))
		}
		cw.Uint32(uint32(l.w.Cols))
		cw.Uint32(uint32(l.w.Rows))
		if l.quantBits > 0 {
			writeQuantized(cw, l.w.Data, l.quantBits)
			writeQuantized(cw, l.b, l.quantBits)
			continue
		}
		cw.Float64s(l.w.Data)
		cw.Float64s(l.b)
	}
	err := cw.Close()
	return cw.N(), err
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
	cr := codec.NewReader(r, netMagic)
	version, layerCount := cr.Uint16(), cr.Uint16()
	if err := cr.Err(); err != nil {
		return nil, fmt.Errorf("nn: read header: %w", err)
	}
	if version != netVersion {
		return nil, fmt.Errorf("nn: unsupported version %d", version)
	}
	// layers grows as layers arrive: the count comes from the header,
	// so it must not size an allocation the payload never backs.
	var layers []wlayer
	// Cumulative budget across layers: a stream may not claim more
	// weights in total than one layer is allowed to, or a long chain of
	// individually-plausible layers still thrashes the allocator before
	// the truncated payload runs out.
	const maxWeights = 1 << 24
	weightBudget := uint64(maxWeights)
	for i := 0; i < int(layerCount); i++ {
		kind := layerKind(cr.Uint8())
		if err := cr.Err(); err != nil {
			return nil, fmt.Errorf("nn: read layer %d kind: %w", i, err)
		}
		switch kind {
		case kindReLU, kindTanh, kindSigmoid:
			layers = append(layers, wlayer{kind: kind})
		case kindDense, kindDenseQuant:
			bits := 0
			if kind == kindDenseQuant {
				bits = int(cr.Uint8())
			}
			inDim, outDim := cr.Uint32(), cr.Uint32()
			if err := cr.Err(); err != nil {
				return nil, fmt.Errorf("nn: read layer %d dims: %w", i, err)
			}
			if kind == kindDenseQuant && (bits < 2 || bits > 16) {
				return nil, fmt.Errorf("nn: layer %d has invalid quant bits %d", i, bits)
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
			read := cr.Float64s
			if bits > 0 {
				read = func(n int) []float64 { return readQuantized(cr, n, bits) }
			}
			data, bias := read(int(weights)), read(int(outDim))
			if err := cr.Err(); err != nil {
				return nil, fmt.Errorf("nn: read layer %d weights: %w", i, err)
			}
			layers = append(layers, wlayer{
				kind:      kind,
				quantBits: bits,
				w:         &tensor.Matrix{Rows: int(outDim), Cols: int(inDim), Data: data},
				b:         bias,
			})
		default:
			return nil, fmt.Errorf("nn: unknown layer kind %d", kind)
		}
	}
	if err := cr.Close(); err != nil {
		return nil, fmt.Errorf("nn: %w", err)
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

// writeQuantized stores xs as scale + integers: the values must already
// lie on the symmetric grid produced by Quantize, so v/scale is integral.
func writeQuantized(w *codec.Writer, xs []float64, bits int) {
	scale := quantScale(xs, bits)
	w.Float64(scale)
	q := func(x float64) int64 {
		if scale == 0 {
			return 0
		}
		return int64(math.Round(x / scale))
	}
	if bits > 8 {
		w.Floats(xs, 2, func(b []byte, x float64) { binary.LittleEndian.PutUint16(b, uint16(int16(q(x)))) })
		return
	}
	w.Floats(xs, 1, func(b []byte, x float64) { b[0] = byte(int8(q(x))) })
}

// readQuantized reads n values stored by writeQuantized.
func readQuantized(r *codec.Reader, n, bits int) []float64 {
	scale := r.Float64()
	if bits > 8 {
		return r.Floats(n, 2, func(b []byte) float64 {
			return float64(int64(int16(binary.LittleEndian.Uint16(b)))) * scale
		})
	}
	return r.Floats(n, 1, func(b []byte) float64 { return float64(int64(int8(b[0]))) * scale })
}
