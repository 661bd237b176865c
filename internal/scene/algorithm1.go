package scene

import (
	"cmp"
	"fmt"
	"slices"
	"sync"

	"anole/internal/detect"
	"anole/internal/synth"
	"anole/internal/tensor"
	"anole/internal/xrand"
)

// BankedModel is one compressed model accepted into the repertoire by
// Algorithm 1, with the provenance needed by adaptive scene sampling
// (its training pool Γᵢ) and by the experiment harness.
type BankedModel struct {
	// Detector is the trained compressed model Mᵢ.
	Detector *detect.Detector
	// Level and Cluster identify which k-means level (k) and which
	// cluster within it produced the model.
	Level   int
	Cluster int
	// TrainScenes lists the semantic scene indices of the cluster; the
	// model's training pool Γᵢ is every training frame of these scenes.
	TrainScenes []int
	// ValF1 is the validation F1 that passed the δ threshold.
	ValF1 float64
}

// RepertoireConfig controls Algorithm 1. Zero values select defaults
// matching the paper's setup (n = 19 compressed models).
type RepertoireConfig struct {
	// N is the target repertoire size (default 19).
	N int
	// Delta is the validation-F1 acceptance threshold δ (default 0.3).
	Delta float64
	// MaxK bounds the multi-level clustering (default 8); if the bank
	// is still short of N at MaxK, the repertoire is returned as-is.
	MaxK int
	// Restarts is the k-means restart count (default 4).
	Restarts int
	// Train configures each compressed model's training run; its RNG
	// field is ignored (per-model streams are split from RNG).
	Train detect.TrainConfig
	// Workers bounds concurrent model training across all levels: one
	// pool of this many goroutines trains every level's candidates
	// (default 4).
	Workers int
	// RNG is required for determinism.
	RNG *xrand.RNG
}

// minSceneFrames is the fewest training frames a semantic scene needs to
// take part in clustering.
const minSceneFrames = 2

func (c *RepertoireConfig) setDefaults() {
	if c.N <= 0 {
		c.N = 19
	}
	if c.Delta <= 0 {
		c.Delta = 0.3
	}
	if c.MaxK <= 0 {
		c.MaxK = 8
	}
	if c.Restarts <= 0 {
		c.Restarts = 4
	}
	if c.Workers <= 0 {
		c.Workers = 4
	}
	if c.RNG == nil {
		c.RNG = xrand.New(0)
	}
}

// TrainCompressedModels is Algorithm 1: embed each semantic scene with
// the encoder, run k-means for k = 2, 3, … over the scene embeddings,
// train one compressed detector per cluster, and bank every model whose
// validation F1 exceeds δ, until N models are banked or MaxK is reached.
// Banked models are named "M_1" … "M_n" in acceptance order. Candidates
// train on one worker pool shared by every level (see trainBank); the
// bank equals training the levels one after another.
func TrainCompressedModels(enc *Encoder, train, val []*synth.Frame, cfg RepertoireConfig) ([]*BankedModel, error) {
	cfg.setDefaults()
	if enc == nil {
		return nil, fmt.Errorf("scene: nil encoder")
	}
	if len(train) == 0 {
		return nil, fmt.Errorf("scene: no training frames")
	}

	trainByScene := groupByScene(train)
	valByScene := groupByScene(val)
	sceneIdxs, embeddings := sceneEmbeddings(enc, trainByScene)
	if len(sceneIdxs) < 2 {
		return nil, fmt.Errorf("scene: only %d scenes have enough frames", len(sceneIdxs))
	}

	cluster := func(k int) (KMeansResult, error) {
		return KMeans(embeddings, k, cfg.Restarts, cfg.RNG.Split(uint64(k)))
	}
	return trainBank(cluster, sceneIdxs, trainByScene, valByScene, train[0].FeatDim(), cfg)
}

// sceneEmbeddings returns, in ascending scene order, every semantic
// scene with at least minSceneFrames training frames and its mean embedding
// (the Hᵢ of Algorithm 1).
func sceneEmbeddings(enc *Encoder, trainByScene map[int][]*synth.Frame) ([]int, []tensor.Vector) {
	var (
		sceneIdxs  []int
		embeddings []tensor.Vector
	)
	for _, idx := range sortedKeys(trainByScene) {
		frames := trainByScene[idx]
		if len(frames) < minSceneFrames {
			continue
		}
		mean := tensor.NewVector(enc.EmbedDim())
		for _, f := range frames {
			mean.AddScaled(1, enc.Embed(f))
		}
		mean.Scale(1 / float64(len(frames)))
		sceneIdxs = append(sceneIdxs, idx)
		embeddings = append(embeddings, mean)
	}
	return sceneIdxs, embeddings
}

// bankJob is one cluster's candidate model: the cluster's frames and
// RNG stream going in, the trained candidate (nil if training failed)
// coming out.
type bankJob struct {
	level, cluster int
	scenes         []int
	train, val     []*synth.Frame
	rng            *xrand.RNG
	model          *BankedModel
	finished       bool
}

// run trains the job's candidate detector and scores it on the
// cluster's validation frames (its training frames when it has none).
func (j *bankJob) run(featDim int, tc detect.TrainConfig) {
	tc.RNG = j.rng
	det := detect.NewDetector(fmt.Sprintf("k%d/c%d", j.level, j.cluster), detect.Compressed, featDim, j.rng)
	if err := det.Train(j.train, j.val, tc); err != nil {
		return // cluster too small to train; skip silently
	}
	evalFrames := j.val
	if len(evalFrames) == 0 {
		evalFrames = j.train
	}
	j.model = &BankedModel{
		Detector:    det,
		Level:       j.level,
		Cluster:     j.cluster,
		TrainScenes: j.scenes,
		ValF1:       det.EvaluateFrames(evalFrames).F1,
	}
}

// passes reports whether a finished job's candidate clears δ.
func (j *bankJob) passes(delta float64) bool { return j.model != nil && j.model.ValF1 > delta }

// trainBank runs Algorithm 1's levels k = 2, 3, … on one pool of
// cfg.Workers goroutines. cluster(k) clusters the scenes at level k.
//
// The calling goroutine owns every decision. It clusters a level and
// draws its clusters' RNG streams only once the levels already started
// cannot bank N models even if every unfinished candidate passes δ —
// exactly when the level-by-level loop would reach it — so the clusters
// and streams are that loop's. It hands the workers the largest pending
// training set first, from whichever level, and banks candidates in
// (level, cluster) order as they resolve. Each candidate depends only on
// its own frames and stream, so the bank does not depend on the worker
// count or on completion order. Jobs not yet started when the bank is
// decided are dropped; running ones are waited for before returning.
func trainBank(cluster func(k int) (KMeansResult, error), sceneIdxs []int,
	trainByScene, valByScene map[int][]*synth.Frame, featDim int, cfg RepertoireConfig) ([]*BankedModel, error) {

	work := make(chan *bankJob)
	// One slot per worker, so a worker finishing while this goroutine
	// is clustering a level hands its result back without waiting.
	done := make(chan *bankJob, cfg.Workers)
	var wg sync.WaitGroup
	for w := 0; w < cfg.Workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range work {
				j.run(featDim, cfg.Train)
				done <- j
			}
		}()
	}
	var (
		cands   []*bankJob // every started level's jobs, in (level, cluster) order
		next    int        // first candidate neither banked nor rejected
		pending []*bankJob // jobs not yet handed out, largest training set first
		running int
		bank    []*BankedModel
		level   = 1 // last level started; the first is k = 2
	)
	defer func() {
		close(work)
		for ; running > 0; running-- {
			<-done
		}
		wg.Wait()
	}()
	for {
		for next < len(cands) && cands[next].finished && len(bank) < cfg.N {
			if c := cands[next]; c.passes(cfg.Delta) {
				c.model.Detector.Name = fmt.Sprintf("M_%d", len(bank)+1)
				bank = append(bank, c.model)
			}
			next++
		}
		if len(bank) >= cfg.N {
			break
		}
		reachable := len(bank)
		for _, c := range cands[next:] {
			if !c.finished || c.passes(cfg.Delta) {
				reachable++
			}
		}
		if reachable < cfg.N && level < cfg.MaxK {
			level++
			res, err := cluster(level)
			if err != nil {
				return nil, fmt.Errorf("scene: level %d: %w", level, err)
			}
			jobs := levelJobs(res, sceneIdxs, trainByScene, valByScene, level, cfg.RNG)
			cands = append(cands, jobs...)
			pending = append(pending, jobs...)
			slices.SortStableFunc(pending, func(a, b *bankJob) int { return cmp.Compare(len(b.train), len(a.train)) })
			continue
		}
		if next == len(cands) {
			break // every candidate resolved and no level left
		}
		var send chan<- *bankJob
		var head *bankJob
		if len(pending) > 0 {
			send, head = work, pending[0]
		}
		select {
		case send <- head:
			pending = pending[1:]
			running++
		case j := <-done:
			j.finished = true
			running--
		}
	}
	if len(bank) == 0 {
		return nil, fmt.Errorf("scene: no cluster model passed delta=%.2f", cfg.Delta)
	}
	return bank, nil
}

// levelJobs turns a clustering level into one job per cluster that has
// training frames, in cluster order, drawing each job's RNG stream from
// rng in that order.
func levelJobs(res KMeansResult, sceneIdxs []int, trainByScene, valByScene map[int][]*synth.Frame,
	level int, rng *xrand.RNG) []*bankJob {

	var jobs []*bankJob
	for j := range res.Centroids {
		var scenes []int
		for si, assign := range res.Assign {
			if assign == j {
				scenes = append(scenes, sceneIdxs[si])
			}
		}
		if len(scenes) == 0 {
			continue
		}
		var trainFrames, valFrames []*synth.Frame
		for _, s := range scenes {
			trainFrames = append(trainFrames, trainByScene[s]...)
			valFrames = append(valFrames, valByScene[s]...)
		}
		if len(trainFrames) == 0 {
			continue
		}
		jobs = append(jobs, &bankJob{
			level: level, cluster: j, scenes: scenes,
			train: trainFrames, val: valFrames,
			rng: rng.Split(uint64(level)<<16 | uint64(j)),
		})
	}
	return jobs
}

// PoolFrames returns the training pool Γᵢ of a banked model: every frame
// in `frames` whose semantic scene is in the model's cluster.
func (b *BankedModel) PoolFrames(frames []*synth.Frame) []*synth.Frame {
	in := make(map[int]bool, len(b.TrainScenes))
	for _, s := range b.TrainScenes {
		in[s] = true
	}
	var out []*synth.Frame
	for _, f := range frames {
		if in[f.Scene.Index()] {
			out = append(out, f)
		}
	}
	return out
}

func groupByScene(frames []*synth.Frame) map[int][]*synth.Frame {
	m := make(map[int][]*synth.Frame)
	for _, f := range frames {
		m[f.Scene.Index()] = append(m[f.Scene.Index()], f)
	}
	return m
}

func sortedKeys(m map[int][]*synth.Frame) []int {
	keys := make([]int, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	for i := 1; i < len(keys); i++ {
		for j := i; j > 0 && keys[j] < keys[j-1]; j-- {
			keys[j], keys[j-1] = keys[j-1], keys[j]
		}
	}
	return keys
}
