package nn

import (
	"bytes"
	"encoding/binary"
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
// the weights missing.
func TestReadWeightsBoundsAllocationByInput(t *testing.T) {
	blob := []byte(netMagic)
	blob = binary.LittleEndian.AppendUint16(blob, netVersion)
	blob = binary.LittleEndian.AppendUint16(blob, 1)
	blob = append(blob, byte(kindDense))
	blob = binary.LittleEndian.AppendUint32(blob, 4096)
	blob = binary.LittleEndian.AppendUint32(blob, 4096)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	_, err := ReadWeights(bytes.NewReader(blob))
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("network with no weight data decoded")
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
		t.Fatalf("a %d-byte network allocated %d bytes, want < 1 MiB", len(blob), got)
	}
}
