package synth

import (
	"math"
	"runtime"
	"testing"
	"testing/quick"

	"anole/internal/xrand"
)

func testWorld(t *testing.T, seed uint64) *World {
	t.Helper()
	w, err := NewWorld(DefaultConfig(seed))
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func TestSceneIndexRoundtrip(t *testing.T) {
	for idx := 0; idx < NumScenes; idx++ {
		s := SceneFromIndex(idx)
		if s.Index() != idx {
			t.Fatalf("roundtrip failed at %d -> %v -> %d", idx, s, s.Index())
		}
	}
}

func TestSceneIndexPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	SceneFromIndex(NumScenes)
}

func TestNumScenesIs120(t *testing.T) {
	if NumScenes != 120 {
		t.Fatalf("NumScenes = %d, want 120 (paper §IV-A1)", NumScenes)
	}
}

func TestAttributeStrings(t *testing.T) {
	if Clear.String() != "clear" || Tunnel.String() != "tunnel" || Night.String() != "night" {
		t.Fatal("attribute names wrong")
	}
	if Weather(99).String() == "" || Location(99).String() == "" || TimeOfDay(99).String() == "" {
		t.Fatal("out-of-range attributes must still print")
	}
	s := Scene{Weather: Foggy, Location: Bridge, Time: Night}
	if s.String() != "foggy/bridge/night" {
		t.Fatalf("scene string: %s", s)
	}
	if Car.String() != "car" || Class(9).String() == "" {
		t.Fatal("class names wrong")
	}
}

func TestConfigValidate(t *testing.T) {
	good := DefaultConfig(1)
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := good
	bad.GridW = 0
	if bad.Validate() == nil {
		t.Fatal("zero grid accepted")
	}
	bad = good
	bad.FeatDim = -1
	if bad.Validate() == nil {
		t.Fatal("negative feat dim accepted")
	}
	bad = good
	bad.SceneShift = -1
	if bad.Validate() == nil {
		t.Fatal("negative shift accepted")
	}
	bad = good
	bad.MaxObjects = -1
	if bad.Validate() == nil {
		t.Fatal("negative max objects accepted")
	}
}

func TestGenerateFrameShape(t *testing.T) {
	w := testWorld(t, 1)
	rng := xrand.New(2)
	f := w.GenerateFrame(Scene{Clear, Urban, Daytime}, 1, rng)
	if f.NumCells() != 64 {
		t.Fatalf("cells = %d", f.NumCells())
	}
	if f.FeatDim() != 8 {
		t.Fatalf("feat dim = %d", f.FeatDim())
	}
	if f.Brightness < 0 || f.Brightness > 1 || f.Contrast < 0 || f.Contrast > 1 {
		t.Fatalf("illumination out of range: %v %v", f.Brightness, f.Contrast)
	}
	for _, o := range f.Objects {
		if o.Cell < 0 || o.Cell >= 64 {
			t.Fatalf("object cell %d out of range", o.Cell)
		}
		if o.Size <= 0 {
			t.Fatalf("object size %v", o.Size)
		}
	}
}

func TestObjectsOnDistinctCells(t *testing.T) {
	w := testWorld(t, 3)
	rng := xrand.New(4)
	for i := 0; i < 50; i++ {
		f := w.GenerateFrame(Scene{Clear, Urban, Daytime}, 2, rng)
		seen := make(map[int]bool)
		for _, o := range f.Objects {
			if seen[o.Cell] {
				t.Fatal("two objects share a cell")
			}
			seen[o.Cell] = true
		}
	}
}

func TestGenerateFrameDeterministic(t *testing.T) {
	w1 := testWorld(t, 7)
	w2 := testWorld(t, 7)
	f1 := w1.GenerateFrame(Scene{Rainy, Highway, Night}, 1, xrand.New(9))
	f2 := w2.GenerateFrame(Scene{Rainy, Highway, Night}, 1, xrand.New(9))
	for i := range f1.Cells {
		if f1.Cells[i] != f2.Cells[i] {
			t.Fatal("worlds with identical seeds generated different frames")
		}
	}
	if len(f1.Objects) != len(f2.Objects) {
		t.Fatal("object counts differ")
	}
}

func TestNightDarkerThanDay(t *testing.T) {
	w := testWorld(t, 11)
	rng := xrand.New(12)
	var day, night float64
	const n = 200
	for i := 0; i < n; i++ {
		day += w.GenerateFrame(Scene{Clear, Urban, Daytime}, 1, rng).Brightness
		night += w.GenerateFrame(Scene{Clear, Urban, Night}, 1, rng).Brightness
	}
	if night/n >= day/n {
		t.Fatalf("night brightness %v not below day %v", night/n, day/n)
	}
}

func TestFogCrushesContrast(t *testing.T) {
	w := testWorld(t, 13)
	rng := xrand.New(14)
	var clear, foggy float64
	const n = 200
	for i := 0; i < n; i++ {
		clear += w.GenerateFrame(Scene{Clear, Urban, Daytime}, 1, rng).Contrast
		foggy += w.GenerateFrame(Scene{Foggy, Urban, Daytime}, 1, rng).Contrast
	}
	if foggy/n >= clear/n {
		t.Fatalf("fog contrast %v not below clear %v", foggy/n, clear/n)
	}
}

func TestUrbanDenserThanHighway(t *testing.T) {
	w := testWorld(t, 15)
	rng := xrand.New(16)
	var urban, highway int
	const n = 300
	for i := 0; i < n; i++ {
		urban += len(w.GenerateFrame(Scene{Clear, Urban, Daytime}, 1, rng).Objects)
		highway += len(w.GenerateFrame(Scene{Clear, Highway, Daytime}, 1, rng).Objects)
	}
	if urban <= highway {
		t.Fatalf("urban objects %d not above highway %d", urban, highway)
	}
}

func TestSceneShiftZeroRemovesConditioning(t *testing.T) {
	cfg := DefaultConfig(17)
	cfg.SceneShift = 0
	cfg.NoiseStd = 0
	cfg.ClutterStd = 0
	w, err := NewWorld(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// With no shift/noise/clutter, an empty cell's features depend only
	// on the location background, not on weather or time.
	sA := Scene{Clear, Urban, Daytime}
	sB := Scene{Foggy, Urban, Daytime} // same location, different weather
	mk := func(s Scene) *Frame {
		f := w.GenerateFrame(s, 0, xrand.New(1))
		return f
	}
	fa, fb := mk(sA), mk(sB)
	for i := range fa.Cells {
		if math.Abs(fa.Cells[i]-fb.Cells[i]) > 1e-9 {
			t.Fatalf("shift-0 features differ across weather at %d: %v vs %v", i, fa.Cells[i], fb.Cells[i])
		}
	}
}

func TestSceneShiftSeparatesScenes(t *testing.T) {
	cfg := DefaultConfig(18)
	cfg.NoiseStd = 0
	cfg.ClutterStd = 0
	w, err := NewWorld(cfg)
	if err != nil {
		t.Fatal(err)
	}
	fa := w.GenerateFrame(Scene{Clear, Urban, Daytime}, 0, xrand.New(1))
	fb := w.GenerateFrame(Scene{Foggy, Urban, Night}, 0, xrand.New(1))
	var diff float64
	for i := range fa.Cells {
		diff += math.Abs(fa.Cells[i] - fb.Cells[i])
	}
	if diff < 1 {
		t.Fatalf("scenes should differ in feature space; total |diff| = %v", diff)
	}
}

func TestAreaRatio(t *testing.T) {
	w := testWorld(t, 19)
	f := w.GenerateFrame(Scene{Clear, Urban, Daytime}, 1, xrand.New(20))
	r := f.AreaRatio()
	if r < 0 || r > 1 {
		t.Fatalf("area ratio %v", r)
	}
	empty := w.GenerateFrame(Scene{Clear, Urban, Daytime}, 0, xrand.New(21))
	if len(empty.Objects) != 0 || empty.AreaRatio() != 0 {
		t.Fatalf("zero-density frame has %d objects", len(empty.Objects))
	}
}

func TestObjectAt(t *testing.T) {
	w := testWorld(t, 22)
	rng := xrand.New(23)
	f := w.GenerateFrame(Scene{Clear, Urban, Daytime}, 2, rng)
	if len(f.Objects) == 0 {
		t.Skip("no objects drawn")
	}
	o := f.Objects[0]
	got, ok := f.ObjectAt(o.Cell)
	if !ok || got.Class != o.Class {
		t.Fatal("ObjectAt missed a placed object")
	}
	occupied := make(map[int]bool)
	for _, obj := range f.Objects {
		occupied[obj.Cell] = true
	}
	for c := 0; c < f.NumCells(); c++ {
		if !occupied[c] {
			if _, ok := f.ObjectAt(c); ok {
				t.Fatal("ObjectAt found an object on an empty cell")
			}
			break
		}
	}
}

func TestGenerateClip(t *testing.T) {
	w := testWorld(t, 24)
	p := DefaultProfiles(1)[0]
	clip := w.GenerateClip(p, 5, xrand.New(25))
	if len(clip.Frames) != p.FramesPerClip {
		t.Fatalf("frames = %d, want %d", len(clip.Frames), p.FramesPerClip)
	}
	for i, f := range clip.Frames {
		if f.Clip != 5 || f.Index != i || f.Dataset != KITTI {
			t.Fatalf("frame metadata wrong: %+v", f)
		}
	}
}

func TestClipScenePersistence(t *testing.T) {
	w := testWorld(t, 26)
	p := DefaultProfiles(1)[1] // BDD: persistence 0.95
	clip := w.GenerateClip(p, 0, xrand.New(27))
	switches := 0
	for i := 1; i < len(clip.Frames); i++ {
		if clip.Frames[i].Scene != clip.Frames[i-1].Scene {
			switches++
		}
	}
	// With persistence 0.95 over ~150 frames expect ~7 switches; a
	// uniform draw would give far more.
	if switches > len(clip.Frames)/3 {
		t.Fatalf("too many scene switches: %d over %d frames", switches, len(clip.Frames))
	}
}

func TestDriftChangesOneAttribute(t *testing.T) {
	p := DefaultProfiles(1)[1]
	rng := xrand.New(28)
	s := Scene{Clear, Urban, Daytime}
	for i := 0; i < 200; i++ {
		next := p.drift(s, rng)
		changed := 0
		if next.Weather != s.Weather {
			changed++
		}
		if next.Location != s.Location {
			changed++
		}
		if next.Time != s.Time {
			changed++
		}
		if changed > 1 {
			t.Fatalf("drift changed %d attributes", changed)
		}
	}
}

func TestGenerateCorpusSplits(t *testing.T) {
	w := testWorld(t, 29)
	profiles := DefaultProfiles(0.3)
	corpus := w.GenerateCorpus(profiles)

	var wantClips int
	for _, p := range profiles {
		wantClips += p.Clips
	}
	if len(corpus.Clips) != wantClips {
		t.Fatalf("clips = %d, want %d", len(corpus.Clips), wantClips)
	}
	seen, unseen := corpus.SeenClips(), corpus.UnseenClips()
	if len(seen)+len(unseen) != wantClips {
		t.Fatal("seen/unseen do not partition")
	}
	if len(unseen) == 0 {
		t.Fatal("no unseen clips held out")
	}
	// Each dataset with ≥2 clips must hold out at least one clip.
	unseenPer := make(map[DatasetID]int)
	for _, c := range unseen {
		unseenPer[c.Dataset]++
	}
	for _, p := range profiles {
		if p.Clips >= 2 && unseenPer[p.Dataset] == 0 {
			t.Fatalf("dataset %v has no unseen clip", p.Dataset)
		}
	}

	train := corpus.Frames(Train)
	val := corpus.Frames(Val)
	test := corpus.Frames(Test)
	uns := corpus.Frames(Unseen)
	total := len(train) + len(val) + len(test) + len(uns)
	if total != corpus.TotalFrames() {
		t.Fatalf("splits do not partition: %d vs %d", total, corpus.TotalFrames())
	}
	// Ratios of seen frames approximately 6:2:2.
	seenTotal := len(train) + len(val) + len(test)
	ratio := float64(len(train)) / float64(seenTotal)
	if ratio < 0.55 || ratio > 0.65 {
		t.Fatalf("train ratio = %v", ratio)
	}
}

func TestCorpusDeterministic(t *testing.T) {
	build := func() *Corpus {
		w, err := NewWorld(DefaultConfig(31))
		if err != nil {
			t.Fatal(err)
		}
		return w.GenerateCorpus(DefaultProfiles(0.2))
	}
	a, b := build(), build()
	if a.TotalFrames() != b.TotalFrames() {
		t.Fatal("corpus sizes differ")
	}
	fa := a.Clips[0].Frames[0]
	fb := b.Clips[0].Frames[0]
	for i := range fa.Cells {
		if fa.Cells[i] != fb.Cells[i] {
			t.Fatal("corpora differ despite identical seeds")
		}
	}
}

// TestGenerateCorpusMatchesSerial checks the parallel GenerateCorpus,
// at four goroutines, against generating every clip in order on the
// calling goroutine: the same clips, and every frame's scene, place,
// illumination, objects and feature cells bit for bit.
func TestGenerateCorpusMatchesSerial(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	w := testWorld(t, 33)
	profiles := DefaultProfiles(0.15)
	got := w.GenerateCorpus(profiles)

	rng := xrand.NewLabeled(w.cfg.Seed, "synth-corpus")
	var want []*Clip
	for _, p := range profiles {
		unseen := p.Clips / 10
		if unseen == 0 && p.Clips >= 2 {
			unseen = 1
		}
		for i := 0; i < p.Clips; i++ {
			id := len(want)
			clip := w.GenerateClip(p, id, rng.Split(uint64(id)))
			clip.Seen = i < p.Clips-unseen
			want = append(want, clip)
		}
	}

	bits := math.Float64bits
	if len(got.Clips) != len(want) {
		t.Fatalf("%d clips, serial %d", len(got.Clips), len(want))
	}
	for c, wc := range want {
		gc := got.Clips[c]
		if gc.Dataset != wc.Dataset || gc.ID != wc.ID || gc.Seen != wc.Seen || len(gc.Frames) != len(wc.Frames) {
			t.Fatalf("clip %d: %v/%d seen=%v with %d frames, serial %v/%d seen=%v with %d",
				c, gc.Dataset, gc.ID, gc.Seen, len(gc.Frames), wc.Dataset, wc.ID, wc.Seen, len(wc.Frames))
		}
		for i, wf := range wc.Frames {
			gf := gc.Frames[i]
			same := gf.Scene == wf.Scene && gf.Dataset == wf.Dataset && gf.Clip == wf.Clip && gf.Index == wf.Index &&
				gf.featDim == wf.featDim && bits(gf.Brightness) == bits(wf.Brightness) && bits(gf.Contrast) == bits(wf.Contrast) &&
				len(gf.Objects) == len(wf.Objects) && len(gf.Cells) == len(wf.Cells)
			for j := 0; same && j < len(wf.Objects); j++ {
				g, w := gf.Objects[j], wf.Objects[j]
				same = g.Cell == w.Cell && g.Class == w.Class && bits(g.Size) == bits(w.Size)
			}
			for j := 0; same && j < len(wf.Cells); j++ {
				same = bits(gf.Cells[j]) == bits(wf.Cells[j])
			}
			if !same {
				t.Fatalf("clip %d frame %d differs from the serial corpus", c, i)
			}
		}
	}
}

func TestScenesPresent(t *testing.T) {
	w := testWorld(t, 32)
	corpus := w.GenerateCorpus(DefaultProfiles(0.3))
	scenes := corpus.ScenesPresent()
	if len(scenes) == 0 {
		t.Fatal("no scenes present")
	}
	for i := 1; i < len(scenes); i++ {
		if scenes[i] <= scenes[i-1] {
			t.Fatal("scenes not sorted/unique")
		}
	}
	for _, idx := range scenes {
		if idx < 0 || idx >= NumScenes {
			t.Fatalf("scene index %d out of range", idx)
		}
	}
}

func TestSplitOf(t *testing.T) {
	n := 100
	// Interleaved 6:2:2 blocks: within each run of ten frames, the
	// first six train, the next two validate, the last two test.
	for _, i := range []int{0, 5, 10, 15, 25} {
		if SplitOf(i, n, true) != Train {
			t.Fatalf("frame %d should be Train", i)
		}
	}
	for _, i := range []int{6, 7, 16, 17} {
		if SplitOf(i, n, true) != Val {
			t.Fatalf("frame %d should be Val", i)
		}
	}
	for _, i := range []int{8, 9, 18, 19} {
		if SplitOf(i, n, true) != Test {
			t.Fatalf("frame %d should be Test", i)
		}
	}
	if SplitOf(5, n, false) != Unseen {
		t.Fatal("unseen clip frames must be Unseen")
	}
}

func TestSplitStrings(t *testing.T) {
	names := map[Split]string{Train: "train", Val: "val", Test: "test", Unseen: "unseen"}
	for s, want := range names {
		if s.String() != want {
			t.Fatalf("split %d prints %q", s, s.String())
		}
	}
	if Split(9).String() == "" {
		t.Fatal("unknown split must print")
	}
}

func TestFrameFeature(t *testing.T) {
	w := testWorld(t, 33)
	f := w.GenerateFrame(Scene{Clear, Urban, Daytime}, 1, xrand.New(34))
	feat := FrameFeature(f)
	if len(feat) != FrameFeatureDim(8) {
		t.Fatalf("feature dim = %d", len(feat))
	}
	if feat[16] != f.Brightness || feat[17] != f.Contrast {
		t.Fatal("illumination scalars not appended")
	}
	for i := 8; i < 16; i++ {
		if feat[i] < 0 {
			t.Fatalf("std feature %d negative: %v", i, feat[i])
		}
	}
}

func TestFrameFeatureSeparatesScenes(t *testing.T) {
	w := testWorld(t, 35)
	rng := xrand.New(36)
	a := FrameFeature(w.GenerateFrame(Scene{Clear, Urban, Daytime}, 1, rng))
	b := FrameFeature(w.GenerateFrame(Scene{Foggy, Tunnel, Night}, 1, rng))
	if a.SquaredDistance(b) < 0.01 {
		t.Fatal("frame features of distant scenes should differ")
	}
}

func TestCellInputAndTarget(t *testing.T) {
	w := testWorld(t, 37)
	f := w.GenerateFrame(Scene{Clear, Urban, Daytime}, 3, xrand.New(38))
	ctx := FrameFeature(f)
	in := CellInput(nil, f, 0, ctx)
	if len(in) != CellInputDim(8) {
		t.Fatalf("cell input dim = %d", len(in))
	}
	// dst reuse path
	in2 := CellInput(in, f, 1, ctx)
	if &in2[0] != &in[0] {
		t.Fatal("CellInput should reuse dst")
	}

	if len(f.Objects) == 0 {
		t.Skip("no objects")
	}
	obj := f.Objects[0]
	tgt := CellTarget(nil, f, obj.Cell)
	if len(tgt) != DetectorOutDim {
		t.Fatalf("target dim = %d", len(tgt))
	}
	if tgt[0] != 1 || tgt[1+int(obj.Class)] != 1 {
		t.Fatalf("object target wrong: %v", tgt)
	}
	for c := 0; c < f.NumCells(); c++ {
		if _, ok := f.ObjectAt(c); !ok {
			bg := CellTarget(nil, f, c)
			for _, v := range bg {
				if v != 0 {
					t.Fatalf("background target non-zero: %v", bg)
				}
			}
			break
		}
	}
}

func TestGenerateScenarioClip(t *testing.T) {
	w := testWorld(t, 39)
	s := Scene{Clear, Tunnel, Night}
	clip := w.GenerateScenarioClip(SHD, 99, s, 30, 1, xrand.New(40))
	if len(clip.Frames) != 30 {
		t.Fatalf("frames = %d", len(clip.Frames))
	}
	for _, f := range clip.Frames {
		if f.Scene != s {
			t.Fatal("scenario clip drifted scenes")
		}
		if f.Dataset != SHD || f.Clip != 99 {
			t.Fatal("scenario metadata wrong")
		}
	}
}

func TestSamplePoissonMean(t *testing.T) {
	rng := xrand.New(41)
	const n = 20000
	for _, lambda := range []float64{0.5, 2, 6} {
		var sum float64
		for i := 0; i < n; i++ {
			sum += float64(samplePoisson(lambda, rng))
		}
		mean := sum / n
		if math.Abs(mean-lambda) > 0.1*lambda+0.05 {
			t.Fatalf("Poisson(%v) mean = %v", lambda, mean)
		}
	}
	if samplePoisson(0, rng) != 0 {
		t.Fatal("Poisson(0) must be 0")
	}
}

func TestDatasetStrings(t *testing.T) {
	if KITTI.String() != "KITTI" || BDD100k.String() != "BDD100k" || SHD.String() != "SHD" {
		t.Fatal("dataset names wrong")
	}
	if DatasetID(9).String() == "" {
		t.Fatal("unknown dataset must print")
	}
}

func TestDefaultProfilesScale(t *testing.T) {
	full := DefaultProfiles(1)
	if full[0].Clips != 10 || full[1].Clips != 44 || full[2].Clips != 10 {
		t.Fatalf("full profile clip counts: %d/%d/%d", full[0].Clips, full[1].Clips, full[2].Clips)
	}
	small := DefaultProfiles(0.1)
	for _, p := range small {
		if p.Clips < 1 || p.FramesPerClip < 1 {
			t.Fatal("scaled profile degenerate")
		}
	}
	weird := DefaultProfiles(-3)
	if weird[1].Clips != 44 {
		t.Fatal("invalid scale should fall back to 1")
	}
}

func TestFrameCellViewAliases(t *testing.T) {
	w := testWorld(t, 42)
	f := w.GenerateFrame(Scene{Clear, Urban, Daytime}, 1, xrand.New(43))
	cell := f.Cell(3)
	cell[0] = 123.5
	if f.Cells[3*8] != 123.5 {
		t.Fatal("Cell view should alias frame storage")
	}
}

// Property: every generated frame is structurally valid across random
// scenes and densities.
func TestGenerateFrameProperty(t *testing.T) {
	w := testWorld(t, 44)
	r := xrand.New(45)
	if err := quick.Check(func(seed uint32) bool {
		rr := r.Split(uint64(seed))
		s := SceneFromIndex(rr.Intn(NumScenes))
		f := w.GenerateFrame(s, rr.Float64()*2, rr)
		if f.NumCells() != w.Config().Cells() {
			return false
		}
		if len(f.Objects) > w.Config().MaxObjects {
			return false
		}
		for _, v := range f.Cells {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return false
			}
		}
		return f.Brightness >= 0 && f.Brightness <= 1 && f.Contrast >= 0 && f.Contrast <= 1
	}, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
