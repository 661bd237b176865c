package scene

import (
	"math"
	"testing"

	"anole/internal/detect"
	"anole/internal/synth"
	"anole/internal/tensor"
	"anole/internal/xrand"
)

func TestKMeansSeparatesObviousClusters(t *testing.T) {
	rng := xrand.New(1)
	var points []tensor.Vector
	// Two tight blobs far apart.
	for i := 0; i < 30; i++ {
		points = append(points, tensor.Vector{rng.NormMS(0, 0.1), rng.NormMS(0, 0.1)})
		points = append(points, tensor.Vector{rng.NormMS(10, 0.1), rng.NormMS(10, 0.1)})
	}
	res, err := KMeans(points, 2, 3, rng)
	if err != nil {
		t.Fatal(err)
	}
	// All even indices (blob A) share one cluster; odd (blob B) the other.
	a := res.Assign[0]
	for i := 0; i < len(points); i += 2 {
		if res.Assign[i] != a {
			t.Fatal("blob A split across clusters")
		}
	}
	b := res.Assign[1]
	if b == a {
		t.Fatal("blobs merged")
	}
	if res.Inertia > 10 {
		t.Fatalf("inertia too high: %v", res.Inertia)
	}
}

func TestKMeansKClampedToPoints(t *testing.T) {
	rng := xrand.New(2)
	points := []tensor.Vector{{0, 0}, {1, 1}}
	res, err := KMeans(points, 5, 1, rng)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Centroids) != 2 {
		t.Fatalf("centroids = %d, want clamp to 2", len(res.Centroids))
	}
}

func TestKMeansErrors(t *testing.T) {
	rng := xrand.New(3)
	if _, err := KMeans(nil, 2, 1, rng); err == nil {
		t.Fatal("empty points accepted")
	}
	if _, err := KMeans([]tensor.Vector{{1}}, 0, 1, rng); err == nil {
		t.Fatal("k=0 accepted")
	}
}

func TestKMeansInertiaDecreasesWithK(t *testing.T) {
	rng := xrand.New(4)
	points := make([]tensor.Vector, 60)
	for i := range points {
		points[i] = tensor.Vector{rng.Norm() * 5, rng.Norm() * 5}
	}
	prev := math.Inf(1)
	for k := 1; k <= 4; k++ {
		res, err := KMeans(points, k, 4, rng)
		if err != nil {
			t.Fatal(err)
		}
		if res.Inertia > prev+1e-9 {
			t.Fatalf("inertia increased at k=%d: %v > %v", k, res.Inertia, prev)
		}
		prev = res.Inertia
	}
}

func TestKMeansDeterministic(t *testing.T) {
	mk := func() KMeansResult {
		rng := xrand.New(7)
		points := make([]tensor.Vector, 40)
		for i := range points {
			points[i] = tensor.Vector{rng.Norm(), rng.Norm()}
		}
		res, err := KMeans(points, 3, 2, rng)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := mk(), mk()
	for i := range a.Assign {
		if a.Assign[i] != b.Assign[i] {
			t.Fatal("kmeans not deterministic")
		}
	}
}

func TestNearestCentroid(t *testing.T) {
	cents := []tensor.Vector{{0, 0}, {10, 10}}
	if NearestCentroid(cents, tensor.Vector{1, 1}) != 0 {
		t.Fatal("nearest wrong")
	}
	if NearestCentroid(cents, tensor.Vector{9, 9}) != 1 {
		t.Fatal("nearest wrong")
	}
	if NearestCentroid(nil, tensor.Vector{1, 1}) != -1 {
		t.Fatal("empty centroids should give -1")
	}
}

// buildSmallCorpus generates a compact corpus for encoder/repertoire
// tests.
func buildSmallCorpus(t *testing.T, seed uint64) *synth.Corpus {
	t.Helper()
	w, err := synth.NewWorld(synth.DefaultConfig(seed))
	if err != nil {
		t.Fatal(err)
	}
	return w.GenerateCorpus(synth.DefaultProfiles(0.25))
}

func TestTrainEncoderClassifiesScenes(t *testing.T) {
	corpus := buildSmallCorpus(t, 10)
	train := corpus.Frames(synth.Train)
	val := corpus.Frames(synth.Val)
	enc, err := TrainEncoder(train, val, EncoderConfig{Epochs: 25, RNG: xrand.New(11)})
	if err != nil {
		t.Fatal(err)
	}
	if enc.NumClasses() < 2 {
		t.Fatalf("classes = %d", enc.NumClasses())
	}
	cm := enc.ConfusionOn(val)
	acc := cm.Accuracy()
	if acc < 0.5 {
		t.Fatalf("scene classification accuracy = %v, want > 0.5", acc)
	}
}

func TestEncoderEmbedProperties(t *testing.T) {
	corpus := buildSmallCorpus(t, 12)
	train := corpus.Frames(synth.Train)
	enc, err := TrainEncoder(train, nil, EncoderConfig{Epochs: 15, RNG: xrand.New(13)})
	if err != nil {
		t.Fatal(err)
	}
	f := train[0]
	e1 := enc.Embed(f)
	if len(e1) != enc.EmbedDim() {
		t.Fatalf("embed dim = %d, want %d", len(e1), enc.EmbedDim())
	}
	// Embed returns a copy: mutating it must not affect a second call.
	e1[0] += 100
	e2 := enc.Embed(f)
	if e2[0] == e1[0] {
		t.Fatal("Embed aliases internal state")
	}
	// EmbedFeature path matches Embed.
	e3 := enc.EmbedFeature(synth.FrameFeature(f))
	for i := range e2 {
		if e2[i] != e3[i] {
			t.Fatal("EmbedFeature differs from Embed")
		}
	}
}

func TestEncoderClassOf(t *testing.T) {
	corpus := buildSmallCorpus(t, 14)
	enc, err := TrainEncoder(corpus.Frames(synth.Train), nil, EncoderConfig{Epochs: 5, RNG: xrand.New(15)})
	if err != nil {
		t.Fatal(err)
	}
	for cls, sceneIdx := range enc.ClassToScene {
		if enc.ClassOf(sceneIdx) != cls {
			t.Fatal("ClassOf inverse broken")
		}
	}
	if enc.ClassOf(-5) != -1 {
		t.Fatal("unknown scene should map to -1")
	}
}

func TestTrainEncoderEmpty(t *testing.T) {
	if _, err := TrainEncoder(nil, nil, EncoderConfig{RNG: xrand.New(1)}); err == nil {
		t.Fatal("empty training set accepted")
	}
}

func TestEmbeddingsClusterBySceneSimilarity(t *testing.T) {
	// Embeddings of the same scene should be closer than embeddings of
	// very different scenes, on average.
	w, err := synth.NewWorld(synth.DefaultConfig(16))
	if err != nil {
		t.Fatal(err)
	}
	rng := xrand.New(17)
	sceneA := synth.Scene{Weather: synth.Clear, Location: synth.Urban, Time: synth.Daytime}
	sceneB := synth.Scene{Weather: synth.Foggy, Location: synth.Tunnel, Time: synth.Night}
	var frames []*synth.Frame
	for i := 0; i < 60; i++ {
		frames = append(frames, w.GenerateFrame(sceneA, 1, rng))
		frames = append(frames, w.GenerateFrame(sceneB, 1, rng))
	}
	enc, err := TrainEncoder(frames, nil, EncoderConfig{Epochs: 20, RNG: rng})
	if err != nil {
		t.Fatal(err)
	}
	meanA := tensor.NewVector(enc.EmbedDim())
	meanB := tensor.NewVector(enc.EmbedDim())
	var withinA float64
	embA := make([]tensor.Vector, 0, 60)
	for i, f := range frames {
		e := enc.Embed(f)
		if i%2 == 0 {
			meanA.AddScaled(1.0/60, e)
			embA = append(embA, e)
		} else {
			meanB.AddScaled(1.0/60, e)
		}
	}
	for _, e := range embA {
		withinA += math.Sqrt(e.SquaredDistance(meanA))
	}
	withinA /= float64(len(embA))
	between := math.Sqrt(meanA.SquaredDistance(meanB))
	if between < withinA {
		t.Fatalf("scenes not separated in embedding space: between %v, within %v", between, withinA)
	}
}

func TestFromPartsValidation(t *testing.T) {
	corpus := buildSmallCorpus(t, 18)
	enc, err := TrainEncoder(corpus.Frames(synth.Train), nil, EncoderConfig{Epochs: 3, RNG: xrand.New(19)})
	if err != nil {
		t.Fatal(err)
	}
	rebuilt, err := FromParts(enc.Weights, enc.ClassToScene, enc.EmbedDim())
	if err != nil {
		t.Fatal(err)
	}
	f := corpus.Frames(synth.Train)[0]
	a, b := enc.Embed(f), rebuilt.Embed(f)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("FromParts encoder differs")
		}
	}
	if _, err := FromParts(enc.Weights, enc.ClassToScene[:1], enc.EmbedDim()); err == nil {
		t.Fatal("class-count mismatch accepted")
	}
}

func TestTrainCompressedModelsBanksModels(t *testing.T) {
	corpus := buildSmallCorpus(t, 20)
	train := corpus.Frames(synth.Train)
	val := corpus.Frames(synth.Val)
	enc, err := TrainEncoder(train, nil, EncoderConfig{Epochs: 15, RNG: xrand.New(21)})
	if err != nil {
		t.Fatal(err)
	}
	bank, err := TrainCompressedModels(enc, train, val, RepertoireConfig{
		N:     6,
		Delta: 0.05,
		MaxK:  4,
		Train: detect.TrainConfig{Epochs: 8},
		RNG:   xrand.New(22),
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(bank) == 0 || len(bank) > 6 {
		t.Fatalf("banked %d models", len(bank))
	}
	seenNames := make(map[string]bool)
	for i, b := range bank {
		if b.ValF1 <= 0.05 {
			t.Fatalf("model %d below delta: %v", i, b.ValF1)
		}
		if len(b.TrainScenes) == 0 {
			t.Fatal("banked model without scenes")
		}
		if b.Level < 2 {
			t.Fatalf("level %d", b.Level)
		}
		if seenNames[b.Detector.Name] {
			t.Fatalf("duplicate model name %s", b.Detector.Name)
		}
		seenNames[b.Detector.Name] = true
	}
	if bank[0].Detector.Name != "M_1" {
		t.Fatalf("first model named %s", bank[0].Detector.Name)
	}

	// Pool frames only contain the model's scenes.
	pool := bank[0].PoolFrames(train)
	if len(pool) == 0 {
		t.Fatal("empty pool")
	}
	in := make(map[int]bool)
	for _, s := range bank[0].TrainScenes {
		in[s] = true
	}
	for _, f := range pool {
		if !in[f.Scene.Index()] {
			t.Fatal("pool contains out-of-cluster frame")
		}
	}
}

func TestTrainCompressedModelsHighDeltaFails(t *testing.T) {
	corpus := buildSmallCorpus(t, 23)
	train := corpus.Frames(synth.Train)
	enc, err := TrainEncoder(train, nil, EncoderConfig{Epochs: 5, RNG: xrand.New(24)})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := TrainCompressedModels(enc, train, nil, RepertoireConfig{
		N: 4, Delta: 0.999, MaxK: 2,
		Train: detect.TrainConfig{Epochs: 4},
		RNG:   xrand.New(25),
	}); err == nil {
		t.Fatal("impossible delta should fail")
	}
}

func TestTrainCompressedModelsValidation(t *testing.T) {
	if _, err := TrainCompressedModels(nil, nil, nil, RepertoireConfig{RNG: xrand.New(1)}); err == nil {
		t.Fatal("nil encoder accepted")
	}
}

func TestInterleavedEmbedsAreIndependent(t *testing.T) {
	// Regression for the Network.Forward aliasing footgun: Embed used to
	// return a view of layer state and compensate with a defensive
	// Clone(). With frozen weights the outputs are caller-owned by
	// construction, so interleaved embeddings of different frames must
	// never overwrite each other — including through the reused-dst path.
	corpus := buildSmallCorpus(t, 22)
	train := corpus.Frames(synth.Train)
	enc, err := TrainEncoder(train, nil, EncoderConfig{Epochs: 5, RNG: xrand.New(23)})
	if err != nil {
		t.Fatal(err)
	}
	f1, f2 := train[0], train[1]
	want1 := enc.Embed(f1)
	want2 := enc.Embed(f2)
	got1 := enc.Embed(f1)
	got2 := enc.Embed(f2) // must not corrupt got1
	for i := range want1 {
		if got1[i] != want1[i] {
			t.Fatalf("first embedding corrupted by second at [%d]", i)
		}
		if got2[i] != want2[i] {
			t.Fatalf("second embedding wrong at [%d]", i)
		}
	}
	d1 := tensor.NewVector(enc.EmbedDim())
	d2 := tensor.NewVector(enc.EmbedDim())
	feat1, feat2 := synth.FrameFeature(f1), synth.FrameFeature(f2)
	for trial := 0; trial < 5; trial++ {
		enc.EmbedFeatureInto(d1, feat1)
		enc.EmbedFeatureInto(d2, feat2)
		for i := range want1 {
			if d1[i] != want1[i] || d2[i] != want2[i] {
				t.Fatalf("trial %d: interleaved EmbedFeatureInto corrupted outputs", trial)
			}
		}
	}
}
