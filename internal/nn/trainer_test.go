package nn

import (
	"fmt"
	"math"
	"testing"

	"anole/internal/tensor"
	"anole/internal/xrand"
)

// refTrain is the per-sample reference Train is checked against: every
// sample runs forward through Dense.Forward (MulVec plus the bias) and
// back through AddOuterScaled, AddScaled and MulVecT into the layers'
// own gradient buffers; with several workers each runs on a private
// clone, re-synced from the master every step, over rows w, w+n, …, and
// the master sums the clones' gradients in worker order. Each sample's
// output gradient comes from Loss.Eval, so the comparison also pins the
// trainer's Loss.Grad against it. The epoch loop, shuffling, validation
// and early stopping are Train's.
func refTrain(net *Network, train, val []Sample, cfg TrainConfig) TrainResult {
	var (
		result    TrainResult
		best      *Network
		bestLoss  float64
		badEpochs int
	)
	order := make([]int, len(train))
	for i := range order {
		order[i] = i
	}
	var clones []*Network
	if cfg.Workers > 1 {
		for w := 0; w < cfg.Workers; w++ {
			clones = append(clones, net.Clone())
		}
	}
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		cfg.RNG.ShuffleInts(order)
		for start := 0; start < len(order); start += cfg.BatchSize {
			batch := order[start:min(start+cfg.BatchSize, len(order))]
			refStep(net, clones, train, batch, cfg.Loss, cfg.Optimizer)
		}
		result.Epochs = epoch + 1
		if len(val) == 0 || cfg.Patience <= 0 {
			continue
		}
		vl := refMeanLoss(net, val, cfg.Loss)
		result.ValLoss = append(result.ValLoss, vl)
		if best == nil || vl < bestLoss {
			bestLoss, best, badEpochs = vl, net.Clone(), 0
			continue
		}
		if badEpochs++; badEpochs >= cfg.Patience {
			result.EarlyStopped = true
			break
		}
	}
	if best != nil {
		if err := net.CopyWeightsFrom(best); err != nil {
			panic(err)
		}
		result.BestValLoss = bestLoss
	} else if len(result.ValLoss) > 0 {
		result.BestValLoss = result.ValLoss[len(result.ValLoss)-1]
	}
	return result
}

// refStep is one reference optimizer step (see refTrain).
func refStep(master *Network, clones []*Network, train []Sample, batch []int, loss Loss, opt Optimizer) {
	scale := 1 / float64(len(batch))
	if len(clones) == 0 {
		for _, idx := range batch {
			refBackprop(master, train[idx], loss, scale)
		}
	} else {
		nw := len(clones)
		for w, clone := range clones {
			if err := clone.CopyWeightsFrom(master); err != nil {
				panic(err)
			}
			zeroGrad(clone)
			for bi := w; bi < len(batch); bi += nw {
				refBackprop(clone, train[batch[bi]], loss, scale)
			}
		}
		masterParams := master.Params()
		for _, clone := range clones {
			for gi, cp := range clone.Params() {
				masterParams[gi].Grad.AddScaled(1, cp.Grad)
			}
		}
	}
	opt.Step(master.Params())
	zeroGrad(master)
}

// zeroGrad clears net's accumulated gradients.
func zeroGrad(net *Network) {
	for _, p := range net.Params() {
		p.Grad.Fill(0)
	}
}

// refBackprop runs one sample forward and back through net, adding its
// scaled gradient into the layers' gradient buffers.
func refBackprop(net *Network, s Sample, loss Loss, scale float64) {
	ins := make([]tensor.Vector, len(net.layers))
	outs := make([]tensor.Vector, len(net.layers))
	x := s.X
	for i, l := range net.layers {
		ins[i] = x
		x = l.Forward(x)
		outs[i] = x
	}
	g := tensor.NewVector(len(x))
	loss.Eval(x, s.Y, g)
	g.Scale(scale)
	for i := len(net.layers) - 1; i >= 0; i-- {
		switch l := net.layers[i].(type) {
		case *Dense:
			l.gradW.AddOuterScaled(1, g, ins[i])
			l.gradB.AddScaled(1, g)
			g = l.W.MulVecT(nil, g)
		case *activation:
			gin := tensor.NewVector(len(g))
			for j := range g {
				gin[j] = g[j] * l.deriv(ins[i][j], outs[i][j])
			}
			g = gin
		}
	}
}

// refMeanLoss is MeanLoss one sample at a time through Network.Forward.
func refMeanLoss(net *Network, samples []Sample, loss Loss) float64 {
	var total float64
	for _, s := range samples {
		out := net.Forward(s.X)
		total += loss.Eval(out, s.Y, tensor.NewVector(len(out)))
	}
	return total / float64(len(samples))
}

// trainSamples draws n samples of dim inputs (a fifth of them exact
// zeros, so ReLU units sit at their kink) with one-hot targets over
// classes for softmax cross-entropy or independent 0/1 targets for BCE.
func trainSamples(rng *xrand.RNG, n, dim, classes int, multiLabel bool) []Sample {
	out := make([]Sample, n)
	for i := range out {
		x := tensor.NewVector(dim)
		for j := range x {
			if rng.Float64() >= 0.2 {
				x[j] = rng.Norm()
			}
		}
		y := tensor.NewVector(classes)
		if multiLabel {
			for j := range y {
				if rng.Float64() < 0.4 {
					y[j] = 1
				}
			}
		} else {
			y[rng.Intn(classes)] = 1
		}
		out[i] = Sample{X: x, Y: y}
	}
	return out
}

// sameBits reports whether a and b hold the same float64 bit patterns.
func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// TestTrainMatchesPerSampleReference checks the matrix trainer against
// the per-sample reference bit for bit: trained weights, per-epoch
// validation losses, the best validation loss and where early stopping
// fired. It covers one to three workers (three leaves shards
// empty on single-row batches), batch sizes 1 and 32 over 75 samples
// (so the last batch is ragged), ReLU, Tanh and Sigmoid, both
// classification losses, and Patience on and off.
func TestTrainMatchesPerSampleReference(t *testing.T) {
	acts := map[string]func() Layer{"relu": NewReLU, "tanh": NewTanh, "sigmoid": NewSigmoid}
	losses := map[string]func() Loss{
		"xent": func() Loss { return NewSoftmaxCrossEntropy() },
		"bce":  func() Loss { return NewBCEWithLogits() },
	}
	for actName, act := range acts {
		for lossName, newLoss := range losses {
			for _, workers := range []int{1, 2, 3} {
				for _, batch := range []int{1, 32} {
					for _, patience := range []int{0, 2} {
						name := fmt.Sprintf("%s/%s/workers=%d/batch=%d/patience=%d", actName, lossName, workers, batch, patience)
						t.Run(name, func(t *testing.T) {
							checkAgainstReference(t, act, newLoss, workers, batch, patience)
						})
					}
				}
			}
		}
	}
}

func checkAgainstReference(t *testing.T, act func() Layer, newLoss func() Loss, workers, batch, patience int) {
	t.Helper()
	data := xrand.New(71)
	_, multiLabel := newLoss().(*BCEWithLogits)
	train := trainSamples(data, 75, 6, 4, multiLabel)
	val := trainSamples(data, 20, 6, 4, multiLabel)
	epochs := 6
	if batch == 1 {
		epochs = 3
	}
	run := func(fit func(*Network, TrainConfig) TrainResult) (*Network, TrainResult) {
		rng := xrand.New(72)
		net := NewMLP(MLPConfig{InDim: 6, Hidden: []int{9, 5}, OutDim: 4, Activation: act}, rng)
		return net, fit(net, TrainConfig{
			Epochs:    epochs,
			BatchSize: batch,
			Loss:      newLoss(),
			Optimizer: NewAdam(0.05),
			RNG:       rng,
			Patience:  patience,
			Workers:   workers,
		})
	}
	got, gotRes := run(func(net *Network, cfg TrainConfig) TrainResult {
		res, err := Train(net, train, val, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	})
	want, wantRes := run(func(net *Network, cfg TrainConfig) TrainResult {
		return refTrain(net, train, val, cfg)
	})

	if gotRes.Epochs != wantRes.Epochs || gotRes.EarlyStopped != wantRes.EarlyStopped {
		t.Fatalf("ran %d epochs (stopped early %v), reference %d (%v)", gotRes.Epochs, gotRes.EarlyStopped, wantRes.Epochs, wantRes.EarlyStopped)
	}
	if !sameBits(gotRes.ValLoss, wantRes.ValLoss) || !sameBits([]float64{gotRes.BestValLoss}, []float64{wantRes.BestValLoss}) {
		t.Fatalf("validation losses %v (best %v), reference %v (best %v)", gotRes.ValLoss, gotRes.BestValLoss, wantRes.ValLoss, wantRes.BestValLoss)
	}
	if patience > 0 && len(gotRes.ValLoss) == 0 {
		t.Fatal("no validation losses recorded")
	}
	wp := want.Params()
	for gi, p := range got.Params() {
		if !sameBits(p.Value, wp[gi].Value) {
			t.Fatalf("parameter group %d: %v, reference %v", gi, p.Value, wp[gi].Value)
		}
	}
}

// TestEvaluationMatchesPerSample checks MeanLoss and Accuracy, which run
// the batched forward in chunks of evalRows, against Network.Forward one
// sample at a time, over more samples than one chunk holds.
func TestEvaluationMatchesPerSample(t *testing.T) {
	rng := xrand.New(73)
	net := NewMLP(MLPConfig{InDim: 6, Hidden: []int{9, 5}, OutDim: 4}, rng)
	samples := trainSamples(rng, 2*evalRows+7, 6, 4, false)
	for _, loss := range []Loss{NewSoftmaxCrossEntropy(), NewBCEWithLogits()} {
		got, want := MeanLoss(net, samples, loss), refMeanLoss(net, samples, loss)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%s MeanLoss %v, per-sample %v", loss.Name(), got, want)
		}
	}
	correct := 0
	for _, s := range samples {
		if net.Forward(s.X).Argmax() == s.Y.Argmax() {
			correct++
		}
	}
	if got, want := Accuracy(net, samples), float64(correct)/float64(len(samples)); got != want {
		t.Fatalf("Accuracy %v, per-sample %v", got, want)
	}
}

// TestTrainZeroGradientTimesInf pins the trainer's one departure from
// the per-sample reference (see trainer): a zero gradient meeting an
// infinite activation. Every hidden ReLU unit gets a −∞ pre-activation
// from the +∞ input, so it outputs 0 and passes back a zero gradient,
// and the output stays finite. The per-sample form skips that zero and
// leaves the first layer's input-0 weights alone; the matrix product
// multiplies it through, 0·∞ = NaN, and the update makes them NaN.
func TestTrainZeroGradientTimesInf(t *testing.T) {
	build := func() *Network {
		net := NewMLP(MLPConfig{InDim: 2, Hidden: []int{3}, OutDim: 2}, xrand.New(74))
		w := net.layers[0].(*Dense).W
		for r := 0; r < w.Rows; r++ {
			w.Set(r, 0, -1)
		}
		return net
	}
	train := []Sample{{X: tensor.Vector{math.Inf(1), 0.5}, Y: tensor.Vector{1, 0}}}
	cfg := func() TrainConfig {
		return TrainConfig{Epochs: 1, BatchSize: 1, Loss: NewSoftmaxCrossEntropy(), Optimizer: NewAdam(0.1), RNG: xrand.New(75), Workers: 1}
	}
	got, ref := build(), build()
	if _, err := Train(got, train, nil, cfg()); err != nil {
		t.Fatal(err)
	}
	refTrain(ref, train, nil, cfg())
	gw, rw := got.layers[0].(*Dense).W, ref.layers[0].(*Dense).W
	for r := 0; r < gw.Rows; r++ {
		if !math.IsNaN(gw.At(r, 0)) {
			t.Fatalf("weight [%d][0] = %v, want NaN from 0·∞", r, gw.At(r, 0))
		}
		if rw.At(r, 0) != -1 {
			t.Fatalf("reference weight [%d][0] = %v, want it untouched at -1", r, rw.At(r, 0))
		}
	}
	// The output layer saw only finite activations: both forms agree,
	// on finite weights.
	out := got.layers[2].(*Dense).W.Data
	if !sameBits(out, ref.layers[2].(*Dense).W.Data) {
		t.Fatal("output-layer weights differ from the reference")
	}
	for _, v := range out {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("output-layer weight %v, want finite", v)
		}
	}
}

// TestTrainerStepZeroAllocs pins a one-worker optimizer step at zero
// heap allocations once its buffers are sized: the forward repack, the
// backward products that write straight into the parameters' gradients,
// and the Adam update all reuse memory.
func TestTrainerStepZeroAllocs(t *testing.T) {
	rng := xrand.New(76)
	net := NewMLP(MLPConfig{InDim: 18, Hidden: []int{16, 12}, OutDim: 5}, rng)
	train := trainSamples(rng, 64, 18, 5, false)
	batch := make([]int, 32)
	for i := range batch {
		batch[i] = 2 * i
	}
	tr, loss, opt := newTrainer(net, 1), NewSoftmaxCrossEntropy(), NewAdam(0.01)
	tr.step(train, batch, loss, opt)
	if allocs := testing.AllocsPerRun(20, func() { tr.step(train, batch, loss, opt) }); allocs != 0 {
		t.Fatalf("trainer step: %v allocs/op, want 0", allocs)
	}
}
