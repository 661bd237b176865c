package nn

import (
	"errors"
	"fmt"
	"math"
	"sync"

	"anole/internal/tensor"
	"anole/internal/xrand"
)

// Sample is one supervised training example.
type Sample struct {
	X tensor.Vector
	Y tensor.Vector
}

// TrainConfig controls a Trainer run. Zero values select sensible
// defaults (see Train).
type TrainConfig struct {
	// Epochs is the maximum number of passes over the training set
	// (default 20).
	Epochs int
	// BatchSize is the mini-batch size (default 32).
	BatchSize int
	// Loss is the training objective (default SoftmaxCrossEntropy).
	// Losses must be stateless; the same instance is shared by all
	// workers.
	Loss Loss
	// Optimizer updates parameters (default Adam with LR 0.01).
	Optimizer Optimizer
	// RNG drives shuffling; required for determinism.
	RNG *xrand.RNG
	// Patience stops training after this many epochs without validation
	// improvement; 0 disables early stopping.
	Patience int
	// Workers shards each mini-batch's gradient computation across this
	// many goroutines, worker w taking rows w, w+Workers, …; all read
	// the step's weights, and with more than one each keeps private
	// gradients (default 1).
	// The result does not depend on it beyond floating-point summation
	// order.
	Workers int
}

// TrainResult reports what a training run did. The training loss is
// not reported: the step computes only the loss's gradient (Loss.Grad),
// and validation losses come from MeanLoss.
type TrainResult struct {
	Epochs       int
	ValLoss      []float64
	BestValLoss  float64
	EarlyStopped bool
}

// errNoData is returned when the training set is empty.
var errNoData = errors.New("nn: empty training set")

// Train fits net to train by mini-batch gradient descent, optionally
// early-stopping on val loss (when val is non-empty and cfg.Patience > 0).
// When early stopping triggers, the best-validation weights are restored.
// Each step runs the whole mini-batch as matrix products (see trainer).
// On return each Param's Grad holds the last step's gradient.
func Train(net *Network, train, val []Sample, cfg TrainConfig) (TrainResult, error) {
	if len(train) == 0 {
		return TrainResult{}, errNoData
	}
	if cfg.Epochs <= 0 {
		cfg.Epochs = 20
	}
	if cfg.BatchSize <= 0 {
		cfg.BatchSize = 32
	}
	if cfg.Loss == nil {
		cfg.Loss = NewSoftmaxCrossEntropy()
	}
	if cfg.Optimizer == nil {
		cfg.Optimizer = NewAdam(0.01)
	}
	if cfg.RNG == nil {
		cfg.RNG = xrand.New(0)
	}
	if cfg.Workers <= 0 {
		cfg.Workers = 1
	}

	var (
		result    TrainResult
		best      *Network
		bestLoss  = 0.0
		badEpochs = 0
	)
	order := make([]int, len(train))
	for i := range order {
		order[i] = i
	}

	tr := newTrainer(net, cfg.Workers)
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		cfg.RNG.ShuffleInts(order)
		for start := 0; start < len(order); start += cfg.BatchSize {
			end := start + cfg.BatchSize
			if end > len(order) {
				end = len(order)
			}
			tr.step(train, order[start:end], cfg.Loss, cfg.Optimizer)
		}
		result.Epochs = epoch + 1

		if len(val) == 0 || cfg.Patience <= 0 {
			continue
		}
		vl := MeanLoss(net, val, cfg.Loss)
		result.ValLoss = append(result.ValLoss, vl)
		if best == nil || vl < bestLoss {
			bestLoss = vl
			best = net.Clone()
			badEpochs = 0
			continue
		}
		badEpochs++
		if badEpochs >= cfg.Patience {
			result.EarlyStopped = true
			break
		}
	}
	if best != nil {
		if err := net.CopyWeightsFrom(best); err != nil {
			return result, err
		}
		result.BestValLoss = bestLoss
	} else if len(result.ValLoss) > 0 {
		result.BestValLoss = result.ValLoss[len(result.ValLoss)-1]
	}
	return result, nil
}

// MeanLoss evaluates the mean loss of net over samples without touching
// gradients. The samples run through the trainer's batched forward, so
// every output is bit-identical to Network.Forward's.
func MeanLoss(net *Network, samples []Sample, loss Loss) float64 {
	if len(samples) == 0 {
		return 0
	}
	var total float64
	var grad tensor.Vector
	evaluate(net, samples, func(i int, out tensor.Vector) {
		if len(grad) != len(out) {
			grad = tensor.NewVector(len(out))
		}
		total += loss.Eval(out, samples[i].Y, grad)
	})
	return total / float64(len(samples))
}

// Accuracy returns the argmax classification accuracy of net on samples.
func Accuracy(net *Network, samples []Sample) float64 {
	if len(samples) == 0 {
		return 0
	}
	correct := 0
	evaluate(net, samples, func(i int, out tensor.Vector) {
		if out.Argmax() == samples[i].Y.Argmax() {
			correct++
		}
	})
	return float64(correct) / float64(len(samples))
}

// evalRows bounds how many samples MeanLoss and Accuracy run per batched
// forward, so evaluating a large set keeps a fixed working set.
const evalRows = 256

// evaluate runs net forward over samples, evalRows at a time, calling
// visit with each sample's index and output row in ascending order.
func evaluate(net *Network, samples []Sample, visit func(i int, out tensor.Vector)) {
	var p stepPack
	p.build(net)
	var s shard
	for start := 0; start < len(samples); start += evalRows {
		s.rows = s.rows[:0]
		for i := start; i < min(start+evalRows, len(samples)); i++ {
			s.rows = append(s.rows, i)
		}
		out := s.forward(&p, samples)
		for r, i := range s.rows {
			visit(i, out.Row(r))
		}
	}
}

// trainer runs Train's optimizer steps as matrix products. Each step
// packs the master network's current weights once for the forward
// products (stepPack) and splits the batch into one shard per worker —
// the whole batch with one worker, rows w, w+n, w+2n, … for worker w of
// n — each with private activations. The backward products read the
// output gradient, the layer inputs and the weights where they lie. A
// lone shard writes the parameter gradients straight into each
// Param.Grad; with several, each shard writes its own, and the master
// copies the first shard's and adds the others' in worker order. A
// gradient is a sum from +0 and so never −0, which makes the copy the
// same bits as adding it to zero.
//
// The step computes the same bits as backpropagating the samples one at
// a time (MulVec forward; AddOuterScaled, AddScaled and MulVecT
// backward): every sum still starts at +0 and runs in the same
// ascending order — over a layer's inputs for an output, over its
// outputs for an input gradient, over the shard's rows for a weight or
// bias gradient — and a sum that starts at +0 is never −0, so adding
// the exact zero products the per-sample form skipped changes nothing. The one difference is non-finite values: the
// per-sample form skipped a zero output gradient outright, while a
// matrix product multiplies it through, so a zero gradient against an
// infinite or NaN activation or weight gives a NaN gradient (0·∞) where
// the per-sample form left 0.
type trainer struct {
	net    *Network
	params []Param
	pack   stepPack
	shards []shard
}

// newTrainer sets up the shards' gradient destinations: the master's own
// buffers for a lone shard, private ones otherwise.
func newTrainer(net *Network, workers int) *trainer {
	t := &trainer{net: net, params: net.Params(), shards: make([]shard, workers)}
	for w := range t.shards {
		s := &t.shards[w]
		s.gradW = make([]*tensor.Matrix, len(net.layers))
		s.gradB = make([]tensor.Vector, len(net.layers))
		for i, l := range net.layers {
			d, ok := l.(*Dense)
			switch {
			case !ok:
			case workers == 1:
				s.gradW[i], s.gradB[i] = d.gradW, d.gradB
			default:
				s.gradW[i], s.gradB[i] = tensor.NewMatrix(d.W.Rows, d.W.Cols), tensor.NewVector(d.W.Rows)
			}
		}
	}
	return t
}

// step computes the mean gradient of loss over train[batch] into the
// parameters' gradients and applies opt.
func (t *trainer) step(train []Sample, batch []int, loss Loss, opt Optimizer) {
	t.pack.build(t.net)
	scale := 1 / float64(len(batch))
	nw := len(t.shards)
	for w := range t.shards {
		s := &t.shards[w]
		s.rows = s.rows[:0]
		for bi := w; bi < len(batch); bi += nw {
			s.rows = append(s.rows, batch[bi])
		}
	}
	if nw == 1 {
		t.shards[0].gradients(&t.pack, train, loss, scale)
		opt.Step(t.params)
		return
	}
	var wg sync.WaitGroup
	for w := range t.shards {
		if s := &t.shards[w]; len(s.rows) > 0 {
			wg.Add(1)
			go func() {
				defer wg.Done()
				s.gradients(&t.pack, train, loss, scale)
			}()
		}
	}
	wg.Wait()

	// Shard 0 always has rows; an empty shard contributes exact zeros.
	for i := range t.pack.layers {
		d := t.pack.layers[i].dense
		if d == nil {
			continue
		}
		copy(d.gradW.Data, t.shards[0].gradW[i].Data)
		copy(d.gradB, t.shards[0].gradB[i])
		for w := 1; w < nw; w++ {
			if s := &t.shards[w]; len(s.rows) > 0 {
				tensor.Vector(d.gradW.Data).AddScaled(1, s.gradW[i].Data)
				d.gradB.AddScaled(1, s.gradB[i])
			}
		}
	}
	opt.Step(t.params)
}

// stepPack is the read-only view of a network that one step's shards
// share: every layer, with each dense layer's weights and bias packed
// for the forward product.
type stepPack struct {
	layers []packedLayer
	// firstDense indexes the first dense layer; no gradient is needed
	// below it.
	firstDense int
}

// packedLayer is one layer of a stepPack: a dense layer (dense != nil)
// with its packed weights, or an activation.
type packedLayer struct {
	dense *Dense
	act   *activation
	fwd   tensor.Packed
}

// isReLU reports whether the layer is a ReLU activation.
func (l *packedLayer) isReLU() bool { return l.act != nil && l.act.tag == kindReLU }

// build (re)packs p from net's current parameters, reusing its buffers.
func (p *stepPack) build(net *Network) {
	if len(p.layers) != len(net.layers) {
		p.layers = make([]packedLayer, len(net.layers))
	}
	p.firstDense = len(net.layers)
	for i, l := range net.layers {
		pl := &p.layers[i]
		switch t := l.(type) {
		case *Dense:
			pl.dense, pl.act = t, nil
			pl.fwd.Repack(t.W, t.B)
			p.firstDense = min(p.firstDense, i)
		case *activation:
			pl.dense, pl.act = nil, t
		default:
			panic(fmt.Sprintf("nn: cannot train layer type %T", l))
		}
	}
}

// shard is one worker's working set for a step: its sample rows, every
// layer's activations, the gradient flowing back, and where its weight
// and bias gradients go (see newTrainer).
type shard struct {
	rows []int
	// acts[0] holds the staged inputs and acts[i+1] layer i's output,
	// one row per sample.
	acts []tensor.Matrix
	// g and gin ping-pong the gradient at a layer's output and input.
	g, gin tensor.Matrix
	// gradW[i] and gradB[i] receive dense layer i's gradients.
	gradW []*tensor.Matrix
	gradB []tensor.Vector
}

// forward stages samples[s.rows] as the rows of acts[0] and runs every
// layer over them — dense layers through tensor.DenseInto on the step's
// packed weights, per row bit-identical to Dense.Forward, activations
// element-wise — and returns the output, one row per sample.
func (s *shard) forward(p *stepPack, samples []Sample) *tensor.Matrix {
	if len(s.acts) != len(p.layers)+1 {
		s.acts = make([]tensor.Matrix, len(p.layers)+1)
	}
	width := len(samples[s.rows[0]].X)
	x := fitMatrix(&s.acts[0], len(s.rows), width)
	for r, i := range s.rows {
		if len(samples[i].X) != width {
			panic(fmt.Sprintf("nn: sample %d has %d inputs, sample %d has %d", i, len(samples[i].X), s.rows[0], width))
		}
		copy(x.Row(r), samples[i].X)
	}
	for i := 0; i < len(p.layers); i++ {
		l := &p.layers[i]
		if l.dense != nil {
			// A ReLU right after a dense layer runs inside its kernel
			// call, leaving acts[i+1] unwritten: the backward pass reads
			// a ReLU's derivative off its output, never its input.
			relu := i+1 < len(p.layers) && p.layers[i+1].isReLU()
			if relu {
				i++
			}
			out := fitMatrix(&s.acts[i+1], x.Rows, l.dense.W.Rows)
			x = tensor.DenseInto(out, x, &l.fwd, relu)
			continue
		}
		out := fitMatrix(&s.acts[i+1], x.Rows, x.Cols)
		if l.isReLU() {
			for j, v := range x.Data {
				out.Data[j] = reluFn(v)
			}
		} else {
			for j, v := range x.Data {
				out.Data[j] = l.act.fn(v)
			}
		}
		x = out
	}
	return x
}

// gradients runs the shard's rows forward, writes loss's gradient on
// each row into the output gradient (scaled by scale, the batch mean's
// 1/B), and propagates it back through every layer above the first
// dense one, overwriting the shard's parameter gradients in gradW/gradB.
func (s *shard) gradients(p *stepPack, samples []Sample, loss Loss, scale float64) {
	out := s.forward(p, samples)
	g, gin := fitMatrix(&s.g, out.Rows, out.Cols), &s.gin
	for r, i := range s.rows {
		gr := g.Row(r)
		loss.Grad(out.Row(r), samples[i].Y, gr)
		gr.Scale(scale)
	}
	for i := len(p.layers) - 1; i >= p.firstDense; i-- {
		l := &p.layers[i]
		in, out := &s.acts[i], &s.acts[i+1]
		switch {
		case l.isReLU():
			// ReLU's derivative is 1 where its output is positive, which
			// is exactly where its input is.
			for j, gv := range g.Data {
				g.Data[j] = reluGrad(gv, out.Data[j])
			}
			continue
		case l.act != nil:
			for j, gv := range g.Data {
				g.Data[j] = gv * l.act.deriv(in.Data[j], out.Data[j])
			}
			continue
		}
		w := l.dense.W
		// dL/dW = gᵀ·in and dL/dB = Σ rows of g, both over the rows in
		// order from +0.
		tensor.TMatMulInto(s.gradW[i], g, in)
		gradB := s.gradB[i]
		clear(gradB)
		for r := 0; r < g.Rows; r++ {
			for j, gv := range g.Row(r) {
				gradB[j] += gv
			}
		}
		if i > p.firstDense {
			// dL/din = g·W.
			next := fitMatrix(gin, g.Rows, w.Cols)
			tensor.MatMulInto(next, g, w)
			g, gin = next, g
		}
	}
}

// reluGrad is g·d for ReLU's derivative d — 1 where out > 0, else 0 —
// with d picked by a bit mask instead of a branch, since the sign of an
// activation is unpredictable. It multiplies even by 0, so a NaN or
// infinite g below a non-positive output still gives NaN and a negative
// g gives −0, exactly as the branch form does.
func reluGrad(g, out float64) float64 {
	var keep uint64
	if out > 0 {
		keep = ^uint64(0)
	}
	return g * math.Float64frombits(math.Float64bits(1)&keep)
}

// fitMatrix shapes m as rows × cols, reusing its backing array when it
// is large enough; the contents are left for the caller to overwrite.
func fitMatrix(m *tensor.Matrix, rows, cols int) *tensor.Matrix {
	n := rows * cols
	if cap(m.Data) < n {
		m.Data = make([]float64, n)
	}
	m.Rows, m.Cols, m.Data = rows, cols, m.Data[:n]
	return m
}
