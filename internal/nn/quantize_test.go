package nn

import (
	"bytes"
	"math"
	"testing"

	"anole/internal/tensor"
	"anole/internal/xrand"
)

func TestQuantizeValidation(t *testing.T) {
	net := NewMLP(MLPConfig{InDim: 2, OutDim: 2}, xrand.New(1))
	if _, err := Quantize(net, 1); err == nil {
		t.Fatal("1 bit accepted")
	}
	if _, err := Quantize(net, 17); err == nil {
		t.Fatal("17 bits accepted")
	}
}

func TestQuantizeDoesNotMutateOriginal(t *testing.T) {
	rng := xrand.New(2)
	net := NewMLP(MLPConfig{InDim: 4, Hidden: []int{6}, OutDim: 3}, rng)
	origParams := net.Params()
	orig := append(tensor.Vector(nil), origParams[0].Value...)
	q, err := Quantize(net, 8)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range net.Params()[0].Value {
		if v != orig[i] {
			t.Fatal("Quantize mutated the input network")
		}
	}
	if net.QuantBits() != 0 {
		t.Fatal("input network marked quantized")
	}
	if q.QuantBits() != 8 {
		t.Fatalf("quant bits = %d", q.QuantBits())
	}
}

func TestQuantizeGrid(t *testing.T) {
	rng := xrand.New(3)
	net := NewMLP(MLPConfig{InDim: 8, Hidden: []int{10}, OutDim: 4}, rng)
	const bits = 8
	q, err := Quantize(net, bits)
	if err != nil {
		t.Fatal(err)
	}
	// Every parameter group must have at most 2^bits distinct values
	// and lie exactly on a uniform grid.
	for gi, p := range q.Params() {
		scale := quantScale(p.Value, bits)
		if scale == 0 {
			continue
		}
		distinct := make(map[float64]bool)
		for _, v := range p.Value {
			k := v / scale
			if math.Abs(k-math.Round(k)) > 1e-9 {
				t.Fatalf("group %d value %v off grid (scale %v)", gi, v, scale)
			}
			if math.Abs(k) > (1<<(bits-1))-1+1e-9 {
				t.Fatalf("group %d value %v beyond %d-bit range", gi, v, bits)
			}
			distinct[v] = true
		}
		if len(distinct) > 1<<bits {
			t.Fatalf("group %d has %d distinct values", gi, len(distinct))
		}
	}
}

func TestQuantizedAccuracyClose(t *testing.T) {
	rng := xrand.New(4)
	net := NewMLP(MLPConfig{InDim: 2, Hidden: []int{8}, OutDim: 2, Activation: NewTanh}, rng)
	if _, err := Train(net, xorSamples(), nil, TrainConfig{
		Epochs: 400, BatchSize: 4, Optimizer: NewAdam(0.05), RNG: rng,
	}); err != nil {
		t.Fatal(err)
	}
	q8, err := Quantize(net, 8)
	if err != nil {
		t.Fatal(err)
	}
	if acc := Accuracy(q8, xorSamples()); acc != 1 {
		t.Fatalf("8-bit quantized XOR accuracy %v", acc)
	}
	// Brutal 2-bit quantization should visibly distort the function.
	q2, err := Quantize(net, 2)
	if err != nil {
		t.Fatal(err)
	}
	x := tensor.Vector{0.5, 0.5}
	a, b := net.Forward(x).Clone(), q2.Forward(x)
	var drift float64
	for i := range a {
		drift += math.Abs(a[i] - b[i])
	}
	if drift == 0 {
		t.Fatal("2-bit quantization changed nothing; grid suspiciously fine")
	}
}

func TestQuantizedWeightBytes(t *testing.T) {
	rng := xrand.New(5)
	net := NewMLP(MLPConfig{InDim: 16, Hidden: []int{32}, OutDim: 8}, rng)
	full := net.WeightBytes()
	q8, err := Quantize(net, 8)
	if err != nil {
		t.Fatal(err)
	}
	ratio := float64(full) / float64(q8.WeightBytes())
	if ratio < 6 || ratio > 8.5 {
		t.Fatalf("8-bit size ratio %.1f, want ~8x", ratio)
	}
	q16, err := Quantize(net, 16)
	if err != nil {
		t.Fatal(err)
	}
	if q16.WeightBytes() <= q8.WeightBytes() {
		t.Fatal("16-bit should be larger than 8-bit")
	}
}

func TestQuantizedSerializationRoundtrip(t *testing.T) {
	rng := xrand.New(6)
	for _, bits := range []int{4, 8, 12, 16} {
		net := NewMLP(MLPConfig{InDim: 5, Hidden: []int{7}, OutDim: 3}, rng)
		q, err := Quantize(net, bits)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if _, err := q.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		// The on-disk size must reflect integer storage.
		overhead := int64(buf.Len()) - q.WeightBytes()
		if overhead < 0 || overhead > 160 {
			t.Fatalf("bits %d: framing overhead %d", bits, overhead)
		}
		w, err := ReadWeights(&buf)
		if err != nil {
			t.Fatal(err)
		}
		got := w.Thaw()
		if got.QuantBits() != bits {
			t.Fatalf("bits %d: roundtrip bits %d", bits, got.QuantBits())
		}
		x := tensor.Vector{0.1, -0.9, 0.4, 1.1, -0.3}
		want := q.Forward(x).Clone()
		out := got.Forward(x)
		for i := range want {
			if math.Abs(want[i]-out[i]) > 1e-12 {
				t.Fatalf("bits %d: output %d differs: %v vs %v", bits, i, want[i], out[i])
			}
		}
	}
}

func TestQuantizedCloneKeepsBits(t *testing.T) {
	rng := xrand.New(7)
	net := NewMLP(MLPConfig{InDim: 3, OutDim: 2}, rng)
	q, err := Quantize(net, 8)
	if err != nil {
		t.Fatal(err)
	}
	if q.Clone().QuantBits() != 8 {
		t.Fatal("clone lost quantization marker")
	}
}

func TestQuantAccuracyFactor(t *testing.T) {
	if QuantAccuracyFactor(0) != 1 || QuantAccuracyFactor(16) != 1 || QuantAccuracyFactor(32) != 1 {
		t.Fatal("full precision must not be penalized")
	}
	prev := 1.0
	for _, bits := range []int{12, 8, 6, 4, 2} {
		f := QuantAccuracyFactor(bits)
		if f >= prev {
			t.Fatalf("factor not decreasing as bits shrink: %d-bit %v >= %v", bits, f, prev)
		}
		if f < 0.8 {
			t.Fatalf("%d-bit factor %v below the plausible floor", bits, f)
		}
		prev = f
	}
	// 8-bit quantization is near-lossless; 2-bit is not.
	if f := QuantAccuracyFactor(8); f < 0.95 {
		t.Fatalf("8-bit factor %v should be near-lossless", f)
	}
	if f := QuantAccuracyFactor(2); f > 0.92 {
		t.Fatalf("2-bit factor %v should show real degradation", f)
	}
}
