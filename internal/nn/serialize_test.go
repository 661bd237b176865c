package nn

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"runtime"
	"strings"
	"testing"

	"anole/internal/tensor"
	"anole/internal/xrand"
)

func TestSerializeRoundtrip(t *testing.T) {
	rng := xrand.New(1)
	net := MustNetwork(
		NewDense(3, 7, rng), NewReLU(),
		NewDense(7, 5, rng), NewTanh(),
		NewDense(5, 2, rng), NewSigmoid(),
	)
	var buf bytes.Buffer
	n, err := net.WriteTo(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(buf.Len()) {
		t.Fatalf("WriteTo reported %d bytes, buffer has %d", n, buf.Len())
	}
	w, err := ReadWeights(&buf)
	if err != nil {
		t.Fatal(err)
	}
	got := w.Thaw()
	x := tensor.Vector{0.5, -1.5, 2}
	want := net.Forward(x).Clone()
	out := got.Forward(x)
	for i := range want {
		if want[i] != out[i] {
			t.Fatalf("roundtrip output differs at %d: %v vs %v", i, want[i], out[i])
		}
	}
	if got.ParamCount() != net.ParamCount() {
		t.Fatalf("param count %d vs %d", got.ParamCount(), net.ParamCount())
	}
}

func TestDeserializedNetworkTrainable(t *testing.T) {
	rng := xrand.New(2)
	net := NewMLP(MLPConfig{InDim: 2, Hidden: []int{6}, OutDim: 2, Activation: NewTanh}, rng)
	var buf bytes.Buffer
	if _, err := net.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	w, err := ReadWeights(&buf)
	if err != nil {
		t.Fatal(err)
	}
	loaded := w.Thaw()
	if _, err := Train(loaded, xorSamples(), nil, TrainConfig{
		Epochs: 300, BatchSize: 4, Optimizer: NewAdam(0.05), RNG: rng,
	}); err != nil {
		t.Fatal(err)
	}
	if acc := Accuracy(loaded, xorSamples()); acc != 1 {
		t.Fatalf("loaded network failed to train: acc %v", acc)
	}
}

func TestReadNetworkBadMagic(t *testing.T) {
	if _, err := ReadWeights(strings.NewReader("XXXXgarbage")); err == nil {
		t.Fatal("expected bad-magic error")
	}
}

func TestReadNetworkTruncated(t *testing.T) {
	rng := xrand.New(3)
	net := NewMLP(MLPConfig{InDim: 4, Hidden: []int{4}, OutDim: 2}, rng)
	var buf bytes.Buffer
	if _, err := net.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	for _, cut := range []int{3, 5, 10, len(data) / 2, len(data) - 1} {
		if _, err := ReadWeights(bytes.NewReader(data[:cut])); err == nil {
			t.Fatalf("truncation at %d not detected", cut)
		}
	}
}

func TestReadNetworkCorrupted(t *testing.T) {
	rng := xrand.New(4)
	net := NewMLP(MLPConfig{InDim: 3, Hidden: []int{3}, OutDim: 2}, rng)
	var buf bytes.Buffer
	if _, err := net.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	// Flip a byte in the weight payload; the CRC must catch it.
	data[len(data)/2] ^= 0xFF
	if _, err := ReadWeights(bytes.NewReader(data)); err == nil {
		t.Fatal("corruption not detected")
	}
}

func TestReadNetworkEmpty(t *testing.T) {
	if _, err := ReadWeights(bytes.NewReader(nil)); err == nil {
		t.Fatal("expected error on empty input")
	}
}

func TestSerializeSizeMatchesWeightBytes(t *testing.T) {
	rng := xrand.New(5)
	net := NewMLP(MLPConfig{InDim: 8, Hidden: []int{16}, OutDim: 4}, rng)
	var buf bytes.Buffer
	if _, err := net.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	// Serialized size = weights + small framing overhead.
	overhead := int64(buf.Len()) - net.WeightBytes()
	if overhead < 0 || overhead > 128 {
		t.Fatalf("framing overhead = %d bytes", overhead)
	}
}

// TestReadWeightsBoundsAllocationByInput pins the network decoder
// against header-driven allocation: a 17-byte blob whose one dense
// layer claims 4096×4096 weights (the whole weight budget) and carries
// none must not make ReadWeights allocate the matrix before it finds
// the weights missing, and an 8-byte blob claiming 65535 layers must
// not make it reserve room for them.
func TestReadWeightsBoundsAllocationByInput(t *testing.T) {
	header := func(layers uint16) []byte {
		blob := binary.LittleEndian.AppendUint16([]byte(netMagic), netVersion)
		return binary.LittleEndian.AppendUint16(blob, layers)
	}
	dense := append(header(1), byte(kindDense))
	dense = binary.LittleEndian.AppendUint32(dense, 4096)
	dense = binary.LittleEndian.AppendUint32(dense, 4096)
	for name, blob := range map[string][]byte{"dense": dense, "layer count": header(0xFFFF)} {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		_, err := ReadWeights(bytes.NewReader(blob))
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Fatalf("%s: network with no payload decoded", name)
		}
		if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
			t.Fatalf("%s: a %d-byte network allocated %d bytes, want < 1 MiB", name, len(blob), got)
		}
	}
}

// TestWeightsBytesPinned pins the ANLN encoding byte for byte: programs
// built from literal parameters, so the digests hold on every GOARCH,
// at full precision and quantized to int8 (q8) and int16 (q12) payloads.
func TestWeightsBytesPinned(t *testing.T) {
	dense := func(kind layerKind, bits, rows, cols int, w, b []float64) wlayer {
		return wlayer{kind: kind, quantBits: bits, w: &tensor.Matrix{Rows: rows, Cols: cols, Data: w}, b: b}
	}
	program := func(kind layerKind, bits int) *Weights {
		return newWeights([]wlayer{
			dense(kind, bits, 2, 3, []float64{0.5, -1.25, 2, 0.375, -0.0625, 1}, []float64{0.25, -0.75}),
			{kind: kindReLU},
			dense(kind, bits, 3, 2, []float64{1.5, -2, 0.125, 0.875, -0.5, 3}, []float64{-0.125, 0, 0.5}),
			{kind: kindTanh},
			dense(kind, bits, 1, 3, []float64{-1, 0.25, 0.75}, []float64{0.0625}),
			{kind: kindSigmoid},
		})
	}
	for _, tc := range []struct {
		name string
		w    *Weights
		want string
	}{
		{"full", program(kindDense, 0), "c743c0791e40b2a592b2fdef786ce2904c56507f9b2b25204f8986b43d737cf4"},
		{"q8", program(kindDenseQuant, 8), "42412c28ca1d9cd074d27daeca00524aa554c00980cdb2acb2796a274e5fe2c0"},
		{"q12", program(kindDenseQuant, 12), "a1973d8aad64a91cade407f7f67e39ca085fccf8f59df00dd0ef59516afa695b"},
	} {
		var buf bytes.Buffer
		n, err := tc.w.WriteTo(&buf)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if n != int64(buf.Len()) || n != tc.w.SizeBytes() {
			t.Fatalf("%s: WriteTo reported %d bytes, wrote %d, SizeBytes %d", tc.name, n, buf.Len(), tc.w.SizeBytes())
		}
		if got := fmt.Sprintf("%x", sha256.Sum256(buf.Bytes())); got != tc.want {
			t.Errorf("%s: ANLN encoding sha256 %s, want %s", tc.name, got, tc.want)
		}
		// The decoder must take the pinned bytes back to a program
		// that encodes to them again.
		back, err := ReadWeights(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		var again bytes.Buffer
		if _, err := back.WriteTo(&again); err != nil || !bytes.Equal(again.Bytes(), buf.Bytes()) {
			t.Errorf("%s: decoded program re-encodes differently (err %v)", tc.name, err)
		}
	}
}
