package nn

import (
	"math"
	"testing"

	"anole/internal/tensor"
	"anole/internal/xrand"
)

func almostEqual(a, b, eps float64) bool {
	return math.Abs(a-b) <= eps
}

func TestDenseForward(t *testing.T) {
	d := NewDense(2, 2, xrand.New(1))
	d.W.Set(0, 0, 1)
	d.W.Set(0, 1, 2)
	d.W.Set(1, 0, 3)
	d.W.Set(1, 1, 4)
	d.B[0], d.B[1] = 10, 20
	out := d.Forward(tensor.Vector{1, 1})
	if out[0] != 13 || out[1] != 27 {
		t.Fatalf("dense forward: %v", out)
	}
}

func TestDenseForwardPanicsOnDim(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewDense(3, 2, xrand.New(1)).Forward(tensor.Vector{1})
}

func TestActivations(t *testing.T) {
	in := tensor.Vector{-1, 0, 2}
	relu := NewReLU().Forward(in)
	if relu[0] != 0 || relu[2] != 2 {
		t.Fatalf("relu: %v", relu)
	}
	tanh := NewTanh().Forward(in)
	if !almostEqual(tanh[2], math.Tanh(2), 1e-12) {
		t.Fatalf("tanh: %v", tanh)
	}
	sig := NewSigmoid().Forward(in)
	if !almostEqual(sig[1], 0.5, 1e-12) {
		t.Fatalf("sigmoid: %v", sig)
	}
}

// numericalGradient computes dLoss/dParam by central differences over
// every parameter of net, for one sample.
func numericalGradient(net *Network, loss Loss, x, y tensor.Vector) []tensor.Vector {
	const h = 1e-5
	params := net.Params()
	grads := make([]tensor.Vector, len(params))
	scratch := tensor.NewVector(net.OutDim())
	for gi, p := range params {
		grads[gi] = tensor.NewVector(len(p.Value))
		for j := range p.Value {
			orig := p.Value[j]
			p.Value[j] = orig + h
			lossPlus := loss.Eval(net.Forward(x), y, scratch)
			p.Value[j] = orig - h
			lossMinus := loss.Eval(net.Forward(x), y, scratch)
			p.Value[j] = orig
			grads[gi][j] = (lossPlus - lossMinus) / (2 * h)
		}
	}
	return grads
}

func checkGradients(t *testing.T, net *Network, loss Loss, x, y tensor.Vector) {
	t.Helper()
	numeric := numericalGradient(net, loss, x, y)
	// The analytic gradient is the trainer's: one shard of one row,
	// written into the network's own gradients.
	tr := newTrainer(net, 1)
	tr.pack.build(net)
	s := &tr.shards[0]
	s.rows = []int{0}
	s.gradients(&tr.pack, []Sample{{X: x, Y: y}}, loss, 1)
	for gi, p := range net.Params() {
		g := p.Grad
		for j := range g {
			if !almostEqual(g[j], numeric[gi][j], 1e-5+1e-4*math.Abs(numeric[gi][j])) {
				t.Fatalf("param group %d[%d]: analytic %v vs numeric %v", gi, j, g[j], numeric[gi][j])
			}
		}
	}
}

func TestGradientCheckSoftmaxCE(t *testing.T) {
	rng := xrand.New(11)
	net := NewMLP(MLPConfig{InDim: 4, Hidden: []int{6}, OutDim: 3, Activation: NewTanh}, rng)
	x := tensor.Vector{0.3, -0.7, 0.5, 1.2}
	y := tensor.Vector{0, 1, 0}
	checkGradients(t, net, NewSoftmaxCrossEntropy(), x, y)
}

func TestGradientCheckBCE(t *testing.T) {
	rng := xrand.New(12)
	net := NewMLP(MLPConfig{InDim: 3, Hidden: []int{5}, OutDim: 4, Activation: NewTanh}, rng)
	x := tensor.Vector{0.1, 0.9, -0.4}
	y := tensor.Vector{1, 0, 1, 0}
	checkGradients(t, net, NewBCEWithLogits(), x, y)
}

func TestGradientCheckReLU(t *testing.T) {
	rng := xrand.New(14)
	net := NewMLP(MLPConfig{InDim: 3, Hidden: []int{8}, OutDim: 2}, rng)
	// Avoid inputs that put pre-activations exactly at the ReLU kink.
	x := tensor.Vector{0.37, -0.81, 0.55}
	y := tensor.Vector{1, 0}
	checkGradients(t, net, NewSoftmaxCrossEntropy(), x, y)
}

func xorSamples() []Sample {
	return []Sample{
		{X: tensor.Vector{0, 0}, Y: tensor.Vector{1, 0}},
		{X: tensor.Vector{0, 1}, Y: tensor.Vector{0, 1}},
		{X: tensor.Vector{1, 0}, Y: tensor.Vector{0, 1}},
		{X: tensor.Vector{1, 1}, Y: tensor.Vector{1, 0}},
	}
}

func TestTrainXORAdam(t *testing.T) {
	rng := xrand.New(21)
	net := NewMLP(MLPConfig{InDim: 2, Hidden: []int{8}, OutDim: 2, Activation: NewTanh}, rng)
	_, err := Train(net, xorSamples(), nil, TrainConfig{
		Epochs:    400,
		BatchSize: 4,
		Optimizer: NewAdam(0.05),
		RNG:       rng,
	})
	if err != nil {
		t.Fatal(err)
	}
	if acc := Accuracy(net, xorSamples()); acc != 1 {
		t.Fatalf("XOR accuracy = %v, want 1", acc)
	}
}

func TestTrainEmptySet(t *testing.T) {
	net := NewMLP(MLPConfig{InDim: 2, OutDim: 2}, xrand.New(1))
	if _, err := Train(net, nil, nil, TrainConfig{}); err == nil {
		t.Fatal("expected error on empty training set")
	}
}

func TestTrainDeterministic(t *testing.T) {
	build := func() *Network {
		rng := xrand.New(33)
		net := NewMLP(MLPConfig{InDim: 2, Hidden: []int{4}, OutDim: 2}, rng)
		_, err := Train(net, xorSamples(), nil, TrainConfig{Epochs: 20, RNG: rng})
		if err != nil {
			t.Fatal(err)
		}
		return net
	}
	a := build()
	b := build()
	pa, pb := a.Params(), b.Params()
	for gi := range pa {
		for j := range pa[gi].Value {
			if pa[gi].Value[j] != pb[gi].Value[j] {
				t.Fatalf("training not deterministic at group %d[%d]", gi, j)
			}
		}
	}
}

func TestParallelWorkersMatchSerial(t *testing.T) {
	// With full-batch gradient descent the update is order-independent
	// up to floating-point summation order, so 1-worker and 4-worker
	// runs should land on nearly identical weights.
	samples := xorSamples()
	build := func(workers int) *Network {
		rng := xrand.New(44)
		net := NewMLP(MLPConfig{InDim: 2, Hidden: []int{4}, OutDim: 2, Activation: NewTanh}, rng)
		_, err := Train(net, samples, nil, TrainConfig{
			Epochs:    30,
			BatchSize: 4,
			Optimizer: NewAdam(0.1),
			RNG:       rng,
			Workers:   workers,
		})
		if err != nil {
			t.Fatal(err)
		}
		return net
	}
	serial := build(1)
	parallel := build(4)
	ps, pp := serial.Params(), parallel.Params()
	for gi := range ps {
		for j := range ps[gi].Value {
			if !almostEqual(ps[gi].Value[j], pp[gi].Value[j], 1e-9) {
				t.Fatalf("parallel diverged at group %d[%d]: %v vs %v",
					gi, j, ps[gi].Value[j], pp[gi].Value[j])
			}
		}
	}
}

func TestEarlyStoppingRestoresBest(t *testing.T) {
	rng := xrand.New(55)
	// Tiny train set, disjoint val set: overfitting sets in, so early
	// stopping must trigger and restore the checkpoint.
	train := []Sample{
		{X: tensor.Vector{0.1, 0.2}, Y: tensor.Vector{1, 0}},
		{X: tensor.Vector{0.9, 0.8}, Y: tensor.Vector{0, 1}},
	}
	val := []Sample{
		{X: tensor.Vector{0.2, 0.1}, Y: tensor.Vector{1, 0}},
		{X: tensor.Vector{0.8, 0.9}, Y: tensor.Vector{0, 1}},
	}
	net := NewMLP(MLPConfig{InDim: 2, Hidden: []int{16}, OutDim: 2}, rng)
	res, err := Train(net, train, val, TrainConfig{
		Epochs:    300,
		BatchSize: 2,
		Optimizer: NewAdam(0.1),
		RNG:       rng,
		Patience:  5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.ValLoss) == 0 {
		t.Fatal("validation losses not recorded")
	}
	finalVal := MeanLoss(net, val, NewSoftmaxCrossEntropy())
	if finalVal > res.BestValLoss+1e-9 {
		t.Fatalf("restored weights have val loss %v > best %v", finalVal, res.BestValLoss)
	}
}

func TestCloneIndependence(t *testing.T) {
	rng := xrand.New(66)
	net := NewMLP(MLPConfig{InDim: 2, Hidden: []int{3}, OutDim: 2}, rng)
	clone := net.Clone()
	x := tensor.Vector{0.5, -0.5}
	before := net.Forward(x).Clone()
	// Perturb the clone; master must not change.
	for _, p := range clone.Params() {
		for j := range p.Value {
			p.Value[j] += 1
		}
	}
	after := net.Forward(x)
	for i := range before {
		if before[i] != after[i] {
			t.Fatal("clone shares weights with master")
		}
	}
}

func TestCopyWeightsFromMismatch(t *testing.T) {
	a := NewMLP(MLPConfig{InDim: 2, Hidden: []int{3}, OutDim: 2}, xrand.New(1))
	b := NewMLP(MLPConfig{InDim: 2, Hidden: []int{4}, OutDim: 2}, xrand.New(1))
	if err := a.CopyWeightsFrom(b); err == nil {
		t.Fatal("expected mismatch error")
	}
}

func TestNewNetworkDimValidation(t *testing.T) {
	rng := xrand.New(1)
	if _, err := NewNetwork(NewDense(2, 3, rng), NewDense(4, 2, rng)); err == nil {
		t.Fatal("expected dimension mismatch error")
	}
	if _, err := NewNetwork(NewDense(2, 3, rng), NewReLU(), NewDense(3, 2, rng)); err != nil {
		t.Fatalf("valid network rejected: %v", err)
	}
}

func TestForwardThrough(t *testing.T) {
	rng := xrand.New(2)
	net := MustNetwork(NewDense(2, 5, rng), NewReLU(), NewDense(5, 3, rng))
	x := tensor.Vector{1, -1}
	emb := net.ForwardThrough(2, x)
	if len(emb) != 5 {
		t.Fatalf("embedding dim = %d", len(emb))
	}
	full := net.Forward(x)
	if len(full) != 3 {
		t.Fatalf("output dim = %d", len(full))
	}
}

func TestForwardThroughPanicsOutOfRange(t *testing.T) {
	net := NewMLP(MLPConfig{InDim: 2, OutDim: 2}, xrand.New(1))
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	net.ForwardThrough(99, tensor.Vector{1, 2})
}

func TestParamAndFLOPCounting(t *testing.T) {
	net := NewMLP(MLPConfig{InDim: 10, Hidden: []int{20}, OutDim: 5}, xrand.New(1))
	wantParams := 10*20 + 20 + 20*5 + 5
	if got := net.ParamCount(); got != wantParams {
		t.Fatalf("params = %d, want %d", got, wantParams)
	}
	wantFLOPs := int64(2*10*20+20) + 20 + int64(2*20*5+5)
	if got := net.FLOPs(); got != wantFLOPs {
		t.Fatalf("flops = %d, want %d", got, wantFLOPs)
	}
	if net.WeightBytes() != int64(wantParams*8) {
		t.Fatalf("weight bytes = %d", net.WeightBytes())
	}
}

func TestInOutDim(t *testing.T) {
	net := NewMLP(MLPConfig{InDim: 7, Hidden: []int{4}, OutDim: 3}, xrand.New(1))
	if net.InDim() != 7 || net.OutDim() != 3 {
		t.Fatalf("dims: in=%d out=%d", net.InDim(), net.OutDim())
	}
}

func TestMeanLossAndAccuracyEmpty(t *testing.T) {
	net := NewMLP(MLPConfig{InDim: 2, OutDim: 2}, xrand.New(1))
	if MeanLoss(net, nil, NewSoftmaxCrossEntropy()) != 0 {
		t.Fatal("empty mean loss should be 0")
	}
	if Accuracy(net, nil) != 0 {
		t.Fatal("empty accuracy should be 0")
	}
}

func TestOptimizerReset(t *testing.T) {
	adam := NewAdam(0.01)
	net := NewMLP(MLPConfig{InDim: 2, OutDim: 2}, xrand.New(1))
	adam.Step(net.Params())
	adam.Reset()
	if adam.t != 0 || adam.m != nil {
		t.Fatal("Adam reset incomplete")
	}
}

func TestLossNames(t *testing.T) {
	if NewSoftmaxCrossEntropy().Name() == "" || NewBCEWithLogits().Name() == "" {
		t.Fatal("losses must be named")
	}
	if NewAdam(0.1).Name() != "adam" {
		t.Fatal("optimizer names wrong")
	}
}

func BenchmarkForwardMLP(b *testing.B) {
	net := NewMLP(MLPConfig{InDim: 64, Hidden: []int{64}, OutDim: 16}, xrand.New(1))
	x := tensor.NewVector(64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net.Forward(x)
	}
}

func BenchmarkTrainStep(b *testing.B) {
	rng := xrand.New(1)
	net := NewMLP(MLPConfig{InDim: 32, Hidden: []int{32}, OutDim: 8}, rng)
	samples := make([]Sample, 32)
	for i := range samples {
		x := tensor.NewVector(32)
		for j := range x {
			x[j] = rng.Norm()
		}
		y := tensor.NewVector(8)
		y[i%8] = 1
		samples[i] = Sample{X: x, Y: y}
	}
	cfg := TrainConfig{Epochs: 1, BatchSize: 32, RNG: rng}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Train(net, samples, nil, cfg); err != nil {
			b.Fatal(err)
		}
	}
}
