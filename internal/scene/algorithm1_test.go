package scene

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"
	"testing"
	"time"

	"anole/internal/detect"
	"anole/internal/synth"
	"anole/internal/xrand"
)

// refTrainCompressedModels is Algorithm 1 trained level by level: every
// cluster of a level trains in parallel, the level waits for all of
// them, banks its passing candidates in cluster order, and only then
// clusters the next level.
func refTrainCompressedModels(enc *Encoder, train, val []*synth.Frame, cfg RepertoireConfig) ([]*BankedModel, error) {
	cfg.setDefaults()
	trainByScene := groupByScene(train)
	valByScene := groupByScene(val)
	sceneIdxs, embeddings := sceneEmbeddings(enc, trainByScene)
	featDim := train[0].FeatDim()
	var bank []*BankedModel
	for k := 2; k <= cfg.MaxK && len(bank) < cfg.N; k++ {
		res, err := KMeans(embeddings, k, cfg.Restarts, cfg.RNG.Split(uint64(k)))
		if err != nil {
			return nil, fmt.Errorf("scene: level %d: %w", k, err)
		}
		candidates := refTrainLevel(res, sceneIdxs, trainByScene, valByScene, featDim, k, cfg)
		for _, cand := range candidates {
			if cand == nil || cand.ValF1 <= cfg.Delta {
				continue
			}
			if len(bank) >= cfg.N {
				break
			}
			cand.Detector.Name = fmt.Sprintf("M_%d", len(bank)+1)
			bank = append(bank, cand)
		}
	}
	if len(bank) == 0 {
		return nil, fmt.Errorf("scene: no cluster model passed delta=%.2f", cfg.Delta)
	}
	return bank, nil
}

// refTrainLevel trains one candidate per cluster of a level, in
// parallel, preserving cluster order in the result.
func refTrainLevel(res KMeansResult, sceneIdxs []int, trainByScene, valByScene map[int][]*synth.Frame,
	featDim, level int, cfg RepertoireConfig) []*BankedModel {

	k := len(res.Centroids)
	out := make([]*BankedModel, k)
	sem := make(chan struct{}, cfg.Workers)
	var wg sync.WaitGroup
	for j := 0; j < k; j++ {
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
		rng := cfg.RNG.Split(uint64(level)<<16 | uint64(j))
		wg.Add(1)
		sem <- struct{}{}
		go func(j int, scenes []int, trainFrames, valFrames []*synth.Frame, rng *xrand.RNG) {
			defer wg.Done()
			defer func() { <-sem }()
			tc := cfg.Train
			tc.RNG = rng
			det := detect.NewDetector(fmt.Sprintf("k%d/c%d", level, j), detect.Compressed, featDim, rng)
			if err := det.Train(trainFrames, valFrames, tc); err != nil {
				return
			}
			evalFrames := valFrames
			if len(evalFrames) == 0 {
				evalFrames = trainFrames
			}
			out[j] = &BankedModel{
				Detector:    det,
				Level:       level,
				Cluster:     j,
				TrainScenes: scenes,
				ValF1:       det.EvaluateFrames(evalFrames).F1,
			}
		}(j, scenes, trainFrames, valFrames, rng)
	}
	wg.Wait()
	return out
}

// bankFixture is a small corpus and encoder for Algorithm 1 tests.
type bankFixture struct {
	enc        *Encoder
	train, val []*synth.Frame
}

func newBankFixture(t *testing.T) bankFixture {
	t.Helper()
	corpus := buildSmallCorpus(t, 20)
	train := corpus.Frames(synth.Train)
	enc, err := TrainEncoder(train, nil, EncoderConfig{Epochs: 15, RNG: xrand.New(21)})
	if err != nil {
		t.Fatal(err)
	}
	return bankFixture{enc: enc, train: train, val: corpus.Frames(synth.Val)}
}

// weightBytes serializes a banked model's frozen weights.
func weightBytes(t *testing.T, b *BankedModel) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := b.Detector.Weights().WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestTrainCompressedModelsMatchesLevelByLevel checks the pooled bank
// against the level-by-level reference at 1, 2 and 4 workers: the same
// models, named alike, from the same level and cluster, over the same
// scenes, with the same validation-F1 bits and the same frozen weights,
// leaving the caller's RNG where the reference leaves it.
// One configuration fills N partway through a level; one fills it with
// a level's last cluster; one sets δ high
// enough that rejected candidates force levels beyond those N would
// need if every candidate passed; one runs out of levels at MaxK short
// of N.
func TestTrainCompressedModelsMatchesLevelByLevel(t *testing.T) {
	fx := newBankFixture(t)
	configs := []struct {
		name string
		cfg  RepertoireConfig
		// check confirms the reference bank exercises the case.
		check func(bank []*BankedModel) error
	}{
		{"n-mid-level", RepertoireConfig{N: 4, Delta: 0.0001, MaxK: 8}, func(bank []*BankedModel) error {
			last := bank[len(bank)-1]
			if len(bank) != 4 || last.Cluster >= last.Level-1 {
				return fmt.Errorf("bank of %d ends at level %d cluster %d, want 4 ending before the level's last cluster", len(bank), last.Level, last.Cluster)
			}
			return nil
		}},
		{"n-at-level-end", RepertoireConfig{N: 5, Delta: 0.0001, MaxK: 8}, func(bank []*BankedModel) error {
			// Levels 2 and 3 fill N exactly: level 4 must never be
			// clustered, which the RNG check below sees.
			if last := bank[len(bank)-1]; len(bank) != 5 || last.Level != 3 || last.Cluster != 2 {
				return fmt.Errorf("bank of %d ends at level %d cluster %d, want 5 ending at level 3 cluster 2", len(bank), last.Level, last.Cluster)
			}
			return nil
		}},
		{"delta-extra-level", RepertoireConfig{N: 7, Delta: 0.42, MaxK: 8}, func(bank []*BankedModel) error {
			// Levels 2-4 hold up to 9 candidates, so 7 passing models
			// from beyond level 4 means δ rejected some.
			if last := bank[len(bank)-1]; len(bank) != 7 || last.Level <= 4 {
				return fmt.Errorf("bank of %d ends at level %d, want 7 ending beyond level 4", len(bank), last.Level)
			}
			return nil
		}},
		{"max-k-short", RepertoireConfig{N: 100, Delta: 0.3, MaxK: 5}, func(bank []*BankedModel) error {
			if last := bank[len(bank)-1]; last.Level != 5 {
				return fmt.Errorf("bank ends at level %d, want MaxK 5", last.Level)
			}
			return nil
		}},
	}
	for _, c := range configs {
		c.cfg.Train = detect.TrainConfig{Epochs: 3}
		c.cfg.RNG = xrand.New(22)
		want, err := refTrainCompressedModels(fx.enc, fx.train, fx.val, c.cfg)
		if err != nil {
			t.Fatal(err)
		}
		wantNext := c.cfg.RNG.Uint64()
		if err := c.check(want); err != nil {
			t.Fatalf("%s: reference does not cover the case: %v", c.name, err)
		}
		for _, workers := range []int{1, 2, 4} {
			t.Run(fmt.Sprintf("%s/workers=%d", c.name, workers), func(t *testing.T) {
				cfg := c.cfg
				cfg.Workers = workers
				cfg.RNG = xrand.New(22)
				got, err := TrainCompressedModels(fx.enc, fx.train, fx.val, cfg)
				if err != nil {
					t.Fatal(err)
				}
				if len(got) != len(want) {
					t.Fatalf("banked %d models, reference %d", len(got), len(want))
				}
				// The same draws, and no more: no level was clustered
				// speculatively.
				if next := cfg.RNG.Uint64(); next != wantNext {
					t.Fatalf("caller's RNG continues at %#x, reference %#x", next, wantNext)
				}
				for i, g := range got {
					w := want[i]
					if g.Detector.Name != w.Detector.Name || g.Level != w.Level || g.Cluster != w.Cluster ||
						fmt.Sprint(g.TrainScenes) != fmt.Sprint(w.TrainScenes) ||
						math.Float64bits(g.ValF1) != math.Float64bits(w.ValF1) {
						t.Fatalf("model %d: %s level %d cluster %d scenes %v F1 %v, reference %s level %d cluster %d scenes %v F1 %v",
							i, g.Detector.Name, g.Level, g.Cluster, g.TrainScenes, g.ValF1,
							w.Detector.Name, w.Level, w.Cluster, w.TrainScenes, w.ValF1)
					}
					if !bytes.Equal(weightBytes(t, g), weightBytes(t, w)) {
						t.Fatalf("model %d (%s): frozen weights differ from the reference", i, g.Detector.Name)
					}
				}
			})
		}
	}
}

// TestTrainBankClusteringError checks that a clustering error at a level
// the bank needs is returned, that one at a level it never reaches is
// not, and that every worker goroutine has exited when trainBank
// returns, in both cases.
func TestTrainBankClusteringError(t *testing.T) {
	fx := newBankFixture(t)
	trainByScene, valByScene := groupByScene(fx.train), groupByScene(fx.val)
	sceneIdxs, embeddings := sceneEmbeddings(fx.enc, trainByScene)
	errLevel := errors.New("clustering failed")
	for _, c := range []struct {
		name    string
		n       int
		wantErr bool
	}{
		{"needed", 100, true},
		{"not-needed", 2, false},
	} {
		t.Run(c.name, func(t *testing.T) {
			before := runtime.NumGoroutine()
			cfg := RepertoireConfig{N: c.n, Delta: 0.0001, MaxK: 8, Workers: 4, Train: detect.TrainConfig{Epochs: 3}, RNG: xrand.New(23)}
			cfg.setDefaults()
			cluster := func(k int) (KMeansResult, error) {
				if k == 3 {
					return KMeansResult{}, errLevel
				}
				return KMeans(embeddings, k, cfg.Restarts, cfg.RNG.Split(uint64(k)))
			}
			bank, err := trainBank(cluster, sceneIdxs, trainByScene, valByScene, fx.train[0].FeatDim(), cfg)
			if c.wantErr && (!errors.Is(err, errLevel) || bank != nil) {
				t.Fatalf("got bank of %d, error %v; want the level-3 clustering error", len(bank), err)
			}
			if !c.wantErr && (err != nil || len(bank) != c.n) {
				t.Fatalf("got bank of %d, error %v; want %d models and no error", len(bank), err, c.n)
			}
			// A worker that has called wg.Done may still be unwinding.
			deadline := time.Now().Add(5 * time.Second)
			for runtime.NumGoroutine() > before {
				if time.Now().After(deadline) {
					t.Fatalf("%d goroutines after trainBank, %d before", runtime.NumGoroutine(), before)
				}
				time.Sleep(time.Millisecond)
			}
		})
	}
}
