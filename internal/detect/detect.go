// Package detect implements the object-detection task on synth frames: a
// grid detector applies a shared per-cell MLP head to every cell of the
// feature grid, predicting objectness and object class. Two architecture
// configurations mirror the paper's detector pair — Deep (the YOLOv3
// analogue) and Compressed (the YOLOv3-tiny analogue) — with roughly a 10×
// FLOPs gap, and evaluation reports precision/recall/F1 by cell-level
// matching.
package detect

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"

	"anole/internal/nn"
	"anole/internal/stats"
	"anole/internal/synth"
	"anole/internal/tensor"
	"anole/internal/xrand"
)

// Arch names a detector architecture: the hidden widths of the per-cell
// head.
type Arch struct {
	Name   string
	Hidden []int
}

// Deep is the large-detector configuration (YOLOv3 analogue) and
// Compressed the small one (YOLOv3-tiny analogue). With the default
// 18-dimensional cell input their per-frame FLOPs differ by roughly the
// paper's 10×.
var (
	Deep       = Arch{Name: "deep", Hidden: []int{56, 48}}
	Compressed = Arch{Name: "compressed", Hidden: []int{16}}
)

// Detector is a grid detector over an immutable per-cell head. The
// frozen weights carry no execution state, so one Detector serves any
// number of goroutines concurrently — streams, workers, and cache
// entries all share the same resident copy. Training state exists only
// transiently inside Train (thaw → fit → refreeze).
type Detector struct {
	// Name identifies the model (e.g. "M_7" for a scene-specific
	// compressed model, "SDM" for the deep baseline).
	Name string
	Arch Arch

	weights *nn.Weights
	featDim int
}

// NewDetector constructs a detector head for frames with the given
// per-cell feature dimension.
func NewDetector(name string, arch Arch, featDim int, rng *xrand.RNG) *Detector {
	net := nn.NewMLP(nn.MLPConfig{
		InDim:  synth.CellInputDim(featDim),
		Hidden: arch.Hidden,
		OutDim: synth.DetectorOutDim,
	}, rng)
	return &Detector{Name: name, Arch: arch, weights: net.Freeze(), featDim: featDim}
}

// FromWeights wraps frozen (e.g. deserialized or quantized) weights as a
// detector. The input dimension must match CellInputDim(featDim).
func FromWeights(name string, arch Arch, featDim int, w *nn.Weights) (*Detector, error) {
	if w.InDim() != synth.CellInputDim(featDim) {
		return nil, fmt.Errorf("detect: network input %d, want %d", w.InDim(), synth.CellInputDim(featDim))
	}
	if w.OutDim() != synth.DetectorOutDim {
		return nil, fmt.Errorf("detect: network output %d, want %d", w.OutDim(), synth.DetectorOutDim)
	}
	return &Detector{Name: name, Arch: arch, weights: w, featDim: featDim}, nil
}

// FeatDim returns the per-cell feature dimension the detector expects.
func (d *Detector) FeatDim() int { return d.featDim }

// Weights exposes the frozen per-cell head program (for serialization,
// quantization, and byte-level cache accounting).
func (d *Detector) Weights() *nn.Weights { return d.weights }

// WeightBytes returns the serialized parameter size of the head.
func (d *Detector) WeightBytes() int64 { return d.weights.WeightBytes() }

// SizeBytes returns the exact serialized size of the head program — the
// figure the model cache uses for resident-set accounting.
func (d *Detector) SizeBytes() int64 { return d.weights.SizeBytes() }

// FLOPs returns the per-cell head cost of one forward pass.
func (d *Detector) FLOPs() int64 { return d.weights.FLOPs() }

// FrameFLOPs returns the FLOPs of detecting one full frame with cells
// grid cells.
func (d *Detector) FrameFLOPs(cells int) int64 {
	return d.weights.FLOPs() * int64(cells)
}

// CellPred is the detector output for one cell.
type CellPred struct {
	Objectness float64 // sigmoid probability of an object
	Class      synth.Class
}

// objectnessThreshold converts the objectness probability into a
// detection decision.
const objectnessThreshold = 0.5

// sigmoid decodes the head's objectness logit into a probability.
func sigmoid(x float64) float64 { return 1 / (1 + math.Exp(-x)) }

// objLogitMin is the smallest float64 logit whose sigmoid exceeds
// objectnessThreshold (3·2⁻⁵⁴ with amd64's math.Exp), so a cell is
// predicted exactly when its logit is at least objLogitMin — the
// decision ScorePredictions takes on the decoded probability, without
// evaluating the exponential. NaN compares false either way.
var objLogitMin = thresholdLogit()

// thresholdLogit bisects the positive float64 bit patterns, which order
// as their values, for the first logit sigmoid puts above the threshold:
// 0 decodes to exactly 0.5 and 1 to about 0.73.
func thresholdLogit() float64 {
	lo, hi := math.Float64bits(0), math.Float64bits(1)
	for hi-lo > 1 {
		mid := lo + (hi-lo)/2
		if sigmoid(math.Float64frombits(mid)) > objectnessThreshold {
			hi = mid
		} else {
			lo = mid
		}
	}
	return math.Float64frombits(hi)
}

// DetectFrame runs the head over every cell of f, writing predictions
// into dst (reused when correctly sized) and returning it. It is
// DetectBatch over the one frame: the frame's cells form one batch and
// each dense layer runs as one matrix product over them, bit-identical
// per cell to running the head's Infer on that cell alone. The weights
// are immutable and the working set comes from shared pools, so
// DetectFrame is safe to call concurrently on one shared Detector and,
// with a correctly sized dst, performs no heap allocations.
func (d *Detector) DetectFrame(dst []CellPred, f *synth.Frame) []CellPred {
	dsts, frames := [1][]CellPred{dst}, [1]*synth.Frame{f}
	return d.DetectBatch(dsts[:], frames[:])[0]
}

// DetectBatch runs the head over every cell of every frame, batched, and
// decodes each cell's objectness probability and class. dsts is reused
// per frame when correctly sized, exactly like DetectFrame's dst, and
// per frame the predictions equal DetectFrame's. Safe to call
// concurrently on one shared Detector; with pre-sized dsts the steady
// state performs no heap allocations.
func (d *Detector) DetectBatch(dsts [][]CellPred, frames []*synth.Frame) [][]CellPred {
	if len(dsts) != len(frames) {
		dsts = make([][]CellPred, len(frames))
	}
	outDim := d.weights.OutDim()
	d.infer(frames, nil, func(j int, logits []float64) {
		dsts[j] = decodeLogits(dsts[j], logits, outDim)
	})
	return dsts
}

// decodeLogits decodes one frame's head outputs (a row of outDim logits
// per cell) into per-cell predictions, reusing dst when correctly sized.
func decodeLogits(dst []CellPred, logits []float64, outDim int) []CellPred {
	cells := len(logits) / outDim
	if len(dst) != cells {
		dst = make([]CellPred, cells)
	}
	for c := range dst {
		row := tensor.Vector(logits[c*outDim : (c+1)*outDim])
		dst[c] = CellPred{Objectness: sigmoid(row[0]), Class: synth.Class(row[1:].Argmax())}
	}
	return dst
}

// ScoreBatch runs the head over every frame, batched as DetectBatch, and
// scores each frame against its ground truth straight from the logits:
// dst[j] equals ScorePredictions(DetectBatch(...)[j], frames[j]). dst is
// reused when it has one slot per frame. feats, when non-nil, must start
// with each frame's channel means (synth.FrameFeature or
// synth.ChannelMeansInto of the frame), which then serve as the frame's
// context instead of being computed again. Safe to call concurrently on
// one shared Detector; with a held dst it performs no heap allocations.
func (d *Detector) ScoreBatch(dst []stats.PRF1, frames []*synth.Frame, feats []tensor.Vector) []stats.PRF1 {
	if feats != nil && len(feats) != len(frames) {
		panic(fmt.Sprintf("detect: %d frame features for %d frames", len(feats), len(frames)))
	}
	if len(dst) != len(frames) {
		dst = make([]stats.PRF1, len(frames))
	}
	outDim := d.weights.OutDim()
	d.infer(frames, feats, func(j int, logits []float64) {
		dst[j] = scoreLogits(logits, outDim, frames[j])
	})
	return dst
}

// infer is the body DetectBatch and ScoreBatch share. Each cell's input
// is the cell's features followed by the frame's context — its channel
// means, brightness and contrast — which is the same for every cell of
// the frame. So per frame the head runs once over the frame's cells,
// read in place from f.Cells as a cells × FeatDim matrix, with the
// context written into one small row and read by the first dense layer
// as a shared suffix (nn.Weights.InferBatchSuffix); tail(j, logits)
// receives frame j's head outputs, one row of OutDim logits per cell.
// feats, when non-nil, supplies each frame's channel means.
func (d *Detector) infer(frames []*synth.Frame, feats []tensor.Vector, tail func(j int, logits []float64)) {
	if len(frames) == 0 {
		return
	}
	bs := d.weights.AcquireBatchScratch()
	defer d.weights.ReleaseBatchScratch(bs)

	fd := d.featDim
	outDim := d.weights.OutDim()
	ctx := bs.In(1, fd+2).Row(0)
	for j, f := range frames {
		if f.FeatDim() != fd {
			panic(fmt.Sprintf("detect: frame feat dim %d, detector %d", f.FeatDim(), fd))
		}
		if feats != nil {
			copy(ctx[:fd], feats[j][:fd])
		} else {
			synth.ChannelMeansInto(ctx[:fd], f)
		}
		ctx[fd], ctx[fd+1] = f.Brightness, f.Contrast
		cells := f.NumCells()
		x := tensor.Matrix{Rows: cells, Cols: fd, Data: f.Cells[:cells*fd]}
		out := bs.Out(cells, outDim)
		d.weights.InferBatchSuffix(out, &x, ctx, bs)
		tail(j, out.Data)
	}
}

// ScorePredictions computes the cell-level matching counts between
// per-cell predictions and frame ground truth: a true positive requires
// a predicted object on a cell holding an object of the predicted class;
// a class mistake counts as both a false positive and a missed object.
func ScorePredictions(preds []CellPred, f *synth.Frame) stats.PRF1 {
	var tp, fp, fn int
	for c := 0; c < f.NumCells(); c++ {
		predicted := preds[c].Objectness > objectnessThreshold
		truth, hasObj := f.ObjectAt(c)
		switch {
		case predicted && hasObj && preds[c].Class == truth.Class:
			tp++
		case predicted && hasObj:
			fp++
			fn++
		case predicted:
			fp++
		case hasObj:
			fn++
		}
	}
	return stats.ComputePRF1(tp, fp, fn)
}

// scoreLogits is ScorePredictions over one frame's head outputs (a row
// of outDim logits per cell) without decoding them: a cell is predicted
// when its objectness logit reaches objLogitMin; a true positive is a
// predicted object cell whose class argmax matches the object (the
// first object listed on a cell, as ObjectAt finds it); every other
// predicted cell is a false positive and every other object cell a
// missed object.
func scoreLogits(logits []float64, outDim int, f *synth.Frame) stats.PRF1 {
	cells := len(logits) / outDim
	predicted := 0
	for c := range cells {
		if logits[c*outDim] >= objLogitMin {
			predicted++
		}
	}
	tp, objects := 0, 0
	for k, o := range f.Objects {
		if uint(o.Cell) >= uint(cells) || cellListed(f.Objects[:k], o.Cell) {
			continue
		}
		objects++
		row := tensor.Vector(logits[o.Cell*outDim : (o.Cell+1)*outDim])
		if row[0] >= objLogitMin && synth.Class(row[1:].Argmax()) == o.Class {
			tp++
		}
	}
	return stats.ComputePRF1(tp, predicted-tp, objects-tp)
}

// cellListed reports whether any of objs sits on cell.
func cellListed(objs []synth.Object, cell int) bool {
	for _, o := range objs {
		if o.Cell == cell {
			return true
		}
	}
	return false
}

// EvaluateFrames accumulates matching counts over frames and returns the
// aggregate metrics.
func (d *Detector) EvaluateFrames(frames []*synth.Frame) stats.PRF1 {
	var agg stats.PRF1
	for _, m := range d.ScoreBatch(nil, frames, nil) {
		agg = agg.Add(m)
	}
	return agg
}

// tableChunk is how many frames one ScoreTable ScoreBatch call scores.
const tableChunk = 64

// ScoreTable scores every model on every frame: table[m][i] is
// models[m]'s counts on frames[i], equal to its ScoreBatch over that
// frame alone. Each frame's channel means are computed once and shared by
// all models; each model runs ScoreBatch over chunks of tableChunk
// frames on its own goroutine, at most GOMAXPROCS at a time. Batched
// scores equal one-frame ones whatever the chunking, so the table does
// not depend on the core count.
func ScoreTable(models []*Detector, frames []*synth.Frame) [][]stats.PRF1 {
	means := make([]tensor.Vector, len(frames))
	for i, f := range frames {
		means[i] = synth.ChannelMeansInto(nil, f)
	}
	table := make([][]stats.PRF1, len(models))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < min(runtime.GOMAXPROCS(0), len(models)); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for m := int(next.Add(1) - 1); m < len(models); m = int(next.Add(1) - 1) {
				row := make([]stats.PRF1, len(frames))
				for lo := 0; lo < len(frames); lo += tableChunk {
					hi := min(lo+tableChunk, len(frames))
					models[m].ScoreBatch(row[lo:hi], frames[lo:hi], means[lo:hi])
				}
				table[m] = row
			}
		}()
	}
	wg.Wait()
	return table
}

// TrainConfig controls detector training.
type TrainConfig struct {
	// Epochs, BatchSize and LR configure the underlying nn.Train run
	// (defaults 25, 32, 0.01).
	Epochs    int
	BatchSize int
	LR        float64
	// Patience enables early stopping on validation loss when > 0.
	Patience int
	// Workers shards gradient computation (default 1).
	Workers int
	// RNG drives sampling and initialization; required.
	RNG *xrand.RNG
}

func (c *TrainConfig) setDefaults() {
	if c.Epochs <= 0 {
		c.Epochs = 25
	}
	if c.BatchSize <= 0 {
		c.BatchSize = 32
	}
	if c.LR <= 0 {
		c.LR = 0.01
	}
	if c.RNG == nil {
		c.RNG = xrand.New(0)
	}
}

// backgroundPerObject is the number of background cells Train samples
// per object cell. Using every background cell would drown the loss in
// negatives.
const backgroundPerObject = 1.5

// BuildSamples converts frames into per-cell training samples: every
// object cell plus bgPerObject background cells per object (at least one
// background cell per frame), so the detector sees a balanced objectness
// signal.
func BuildSamples(frames []*synth.Frame, bgPerObject float64, rng *xrand.RNG) []nn.Sample {
	var samples []nn.Sample
	for _, f := range frames {
		ctx := synth.FrameFeature(f)
		occupied := make(map[int]bool, len(f.Objects))
		for _, o := range f.Objects {
			occupied[o.Cell] = true
			samples = append(samples, nn.Sample{
				X: synth.CellInput(nil, f, o.Cell, ctx),
				Y: synth.CellTarget(nil, f, o.Cell),
			})
		}
		nBG := int(float64(bgPerObject*float64(len(f.Objects))) + 0.5)
		if nBG < 1 {
			nBG = 1
		}
		cells := f.NumCells()
		for k := 0; k < nBG; k++ {
			c := rng.Intn(cells)
			if occupied[c] {
				continue // keep the negative pool clean; skip silently
			}
			samples = append(samples, nn.Sample{
				X: synth.CellInput(nil, f, c, ctx),
				Y: synth.CellTarget(nil, f, c),
			})
		}
	}
	return samples
}

// Train fits the detector to the training frames with BCE-with-logits on
// the objectness/class head. The frozen weights are thawed into a
// transient nn.Trainable, fitted, and refrozen; inference on the old
// weights may continue concurrently in other goroutines (they keep the
// program they hold), but Train itself must not race with another Train
// on the same Detector.
func (d *Detector) Train(trainFrames, valFrames []*synth.Frame, cfg TrainConfig) error {
	cfg.setDefaults()
	train := BuildSamples(trainFrames, backgroundPerObject, cfg.RNG)
	if len(train) == 0 {
		return fmt.Errorf("detect: no training samples from %d frames", len(trainFrames))
	}
	var val []nn.Sample
	if len(valFrames) > 0 && cfg.Patience > 0 {
		val = BuildSamples(valFrames, backgroundPerObject, cfg.RNG)
	}
	tr := nn.ThawTrainable(d.weights)
	_, err := tr.Train(train, val, nn.TrainConfig{
		Epochs:    cfg.Epochs,
		BatchSize: cfg.BatchSize,
		Loss:      nn.NewBCEWithLogits(),
		Optimizer: nn.NewAdam(cfg.LR),
		RNG:       cfg.RNG,
		Patience:  cfg.Patience,
		Workers:   cfg.Workers,
	})
	if err != nil {
		return fmt.Errorf("detect: train %s: %w", d.Name, err)
	}
	d.weights = tr.Freeze()
	return nil
}
