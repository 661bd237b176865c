package synth

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"anole/internal/xrand"
)

// DatasetID identifies which source corpus a clip imitates.
type DatasetID uint8

// Dataset identifiers matching the paper's three corpora.
const (
	KITTI DatasetID = iota
	BDD100k
	SHD
	NumDatasets = 3
)

var datasetNames = [...]string{"KITTI", "BDD100k", "SHD"}

func (d DatasetID) String() string {
	if int(d) < len(datasetNames) {
		return datasetNames[d]
	}
	return fmt.Sprintf("dataset(%d)", uint8(d))
}

// Profile describes how one source dataset samples scenes: the attribute
// mixes, clip geometry and object density that distinguish KITTI (small,
// clear daytime suburbs), BDD100k (large, fully diverse) and SHD (Shanghai
// highways and tunnels, day and night).
type Profile struct {
	Dataset       DatasetID
	Clips         int
	FramesPerClip int
	// Weather, Location and Time weight the attribute marginals when a
	// clip picks its starting scene and when the Markov chain drifts.
	Weather  []float64
	Location []float64
	Time     []float64
	// Persistence is the per-frame probability of staying in the
	// current semantic scene (scene durations are geometric).
	Persistence float64
	// DensityMul scales the location's base object density.
	DensityMul float64
}

// DefaultProfiles returns the three dataset profiles sized as in the
// paper's corpus (10 KITTI + 44 BDD100k + 10 SHD = 64 clips). scale ∈
// (0, 1] shrinks clip counts and lengths proportionally for fast tests;
// pass 1 for the full corpus.
func DefaultProfiles(scale float64) []Profile {
	if scale <= 0 || scale > 1 {
		scale = 1
	}
	scaled := func(n int) int {
		v := int(float64(float64(n)*scale) + 0.5)
		if v < 1 {
			v = 1
		}
		return v
	}
	return []Profile{
		{
			Dataset:       KITTI,
			Clips:         scaled(10),
			FramesPerClip: scaled(120),
			//             clear overc rainy snowy foggy
			Weather: []float64{0.80, 0.20, 0, 0, 0},
			//              hwy  urban resid  park  tunl  gas  brdg  toll
			Location: []float64{0.15, 0.35, 0.40, 0.05, 0, 0.05, 0, 0},
			//            day  dusk night
			Time:        []float64{1, 0, 0},
			Persistence: 0.97,
			DensityMul:  1.2,
		},
		{
			Dataset:       BDD100k,
			Clips:         scaled(44),
			FramesPerClip: scaled(150),
			Weather:       []float64{0.45, 0.20, 0.15, 0.10, 0.10},
			Location:      []float64{0.20, 0.40, 0.20, 0.05, 0.03, 0.05, 0.04, 0.03},
			Time:          []float64{0.55, 0.15, 0.30},
			Persistence:   0.95,
			DensityMul:    1.0,
		},
		{
			Dataset:       SHD,
			Clips:         scaled(10),
			FramesPerClip: scaled(120),
			Weather:       []float64{0.60, 0.25, 0.15, 0, 0},
			Location:      []float64{0.40, 0.25, 0.05, 0, 0.20, 0, 0.05, 0.05},
			Time:          []float64{0.55, 0.10, 0.35},
			Persistence:   0.96,
			DensityMul:    0.9,
		},
	}
}

// Clip is one temporally coherent video clip.
type Clip struct {
	Dataset DatasetID
	ID      int // global clip index within the corpus
	Frames  []*Frame
	// Seen reports whether the clip participates in training (the
	// paper's 9:1 seen/unseen split).
	Seen bool
}

// sampleScene draws a semantic scene from the profile's attribute
// marginals.
func (p Profile) sampleScene(rng *xrand.RNG) Scene {
	return Scene{
		Weather:  Weather(rng.Categorical(p.Weather)),
		Location: Location(rng.Categorical(p.Location)),
		Time:     TimeOfDay(rng.Categorical(p.Time)),
	}
}

// drift changes exactly one attribute dimension of s, resampling from the
// profile marginals. Time of day drifts an order of magnitude less often
// than weather or location, since it changes slowly in reality.
func (p Profile) drift(s Scene, rng *xrand.RNG) Scene {
	roll := rng.Float64()
	switch {
	case roll < 0.48:
		s.Location = Location(rng.Categorical(p.Location))
	case roll < 0.92:
		s.Weather = Weather(rng.Categorical(p.Weather))
	default:
		s.Time = TimeOfDay(rng.Categorical(p.Time))
	}
	return s
}

// GenerateClip produces one clip of the profile using world w. The clip's
// scene sequence is a sticky Markov chain: each frame keeps the previous
// scene with probability Persistence, otherwise drifts one attribute.
func (w *World) GenerateClip(p Profile, clipID int, rng *xrand.RNG) *Clip {
	clip := &Clip{Dataset: p.Dataset, ID: clipID, Frames: make([]*Frame, 0, p.FramesPerClip)}
	scene := p.sampleScene(rng)
	for i := 0; i < p.FramesPerClip; i++ {
		if i > 0 && !rng.Bool(p.Persistence) {
			scene = p.drift(scene, rng)
		}
		f := w.GenerateFrame(scene, p.DensityMul, rng)
		f.Dataset = p.Dataset
		f.Clip = clipID
		f.Index = i
		clip.Frames = append(clip.Frames, f)
	}
	return clip
}

// Corpus is the full generated dataset: all clips plus the split
// bookkeeping the paper uses (seen/unseen clips 9:1; within seen clips,
// frames split 6:2:2 into train/val/test).
type Corpus struct {
	World *World
	Clips []*Clip
}

// GenerateCorpus builds the corpus from profiles, marking roughly one in
// ten clips per dataset as unseen (at least one when a dataset has ≥2
// clips). Each clip's RNG stream is split off in clip order; the clips
// are then generated on up to GOMAXPROCS goroutines, which is safe
// because GenerateClip only reads the World, and gives the same corpus
// as generating them one after another.
func (w *World) GenerateCorpus(profiles []Profile) *Corpus {
	type job struct {
		p    Profile
		rng  *xrand.RNG
		seen bool
	}
	rng := xrand.NewLabeled(w.cfg.Seed, "synth-corpus")
	var jobs []job
	for _, p := range profiles {
		unseen := p.Clips / 10
		if unseen == 0 && p.Clips >= 2 {
			unseen = 1
		}
		// The last `unseen` clips of each dataset are held out.
		for i := 0; i < p.Clips; i++ {
			jobs = append(jobs, job{p: p, rng: rng.Split(uint64(len(jobs))), seen: i < p.Clips-unseen})
		}
	}
	corpus := &Corpus{World: w, Clips: make([]*Clip, len(jobs))}
	var next atomic.Int64
	var wg sync.WaitGroup
	for range min(runtime.GOMAXPROCS(0), len(jobs)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for id := int(next.Add(1) - 1); id < len(jobs); id = int(next.Add(1) - 1) {
				clip := w.GenerateClip(jobs[id].p, id, jobs[id].rng)
				clip.Seen = jobs[id].seen
				corpus.Clips[id] = clip
			}
		}()
	}
	wg.Wait()
	return corpus
}

// Split labels the role of a frame within the corpus.
type Split uint8

// Frame roles. Train/Val/Test partition the frames of seen clips 6:2:2 by
// contiguous blocks (respecting temporal order); Unseen covers every frame
// of held-out clips.
const (
	Train Split = iota
	Val
	Test
	Unseen
)

func (s Split) String() string {
	switch s {
	case Train:
		return "train"
	case Val:
		return "val"
	case Test:
		return "test"
	case Unseen:
		return "unseen"
	default:
		return fmt.Sprintf("split(%d)", uint8(s))
	}
}

// SplitOf returns the role of frame index i within a clip of length n
// belonging to a seen clip. The 6:2:2 partition interleaves by blocks of
// ten frames (6 train, 2 val, 2 test) rather than cutting the clip into
// three contiguous runs: "seen" data must expose every scene the clip
// visits to training, as the paper's frame-level split does; a contiguous
// tail would instead hold out whatever novel scenes the clip drifted into
// last (that harder setting is what the unseen clips of Table III
// measure).
func SplitOf(i, n int, seen bool) Split {
	if !seen {
		return Unseen
	}
	_ = n
	switch i % 10 {
	case 6, 7:
		return Val
	case 8, 9:
		return Test
	default:
		return Train
	}
}

// Frames returns every frame of the corpus with the given split role.
func (c *Corpus) Frames(s Split) []*Frame {
	var out []*Frame
	for _, clip := range c.Clips {
		n := len(clip.Frames)
		for i, f := range clip.Frames {
			if SplitOf(i, n, clip.Seen) == s {
				out = append(out, f)
			}
		}
	}
	return out
}

// SeenClips and UnseenClips partition the corpus clips.
func (c *Corpus) SeenClips() []*Clip {
	var out []*Clip
	for _, clip := range c.Clips {
		if clip.Seen {
			out = append(out, clip)
		}
	}
	return out
}

// UnseenClips returns the held-out clips.
func (c *Corpus) UnseenClips() []*Clip {
	var out []*Clip
	for _, clip := range c.Clips {
		if !clip.Seen {
			out = append(out, clip)
		}
	}
	return out
}

// TotalFrames returns the number of frames across all clips.
func (c *Corpus) TotalFrames() int {
	total := 0
	for _, clip := range c.Clips {
		total += len(clip.Frames)
	}
	return total
}

// ScenesPresent returns the sorted list of semantic scene indices that
// occur in the corpus' training frames, which is the label space M_scene
// is trained over.
func (c *Corpus) ScenesPresent() []int {
	present := make(map[int]bool)
	for _, f := range c.Frames(Train) {
		present[f.Scene.Index()] = true
	}
	out := make([]int, 0, len(present))
	for idx := range present {
		out = append(out, idx)
	}
	sortInts(out)
	return out
}

func sortInts(xs []int) {
	// Insertion sort: scene lists are short and this avoids an import.
	for i := 1; i < len(xs); i++ {
		for j := i; j > 0 && xs[j] < xs[j-1]; j-- {
			xs[j], xs[j-1] = xs[j-1], xs[j]
		}
	}
}

// GenerateScenarioClip builds a clip pinned to a fixed semantic scene,
// used for the new-scene experiments (Table III) and the real-world
// scenarios (Fig. 10), where each test clip has stated attributes.
func (w *World) GenerateScenarioClip(ds DatasetID, clipID int, s Scene, frames int, densityMul float64, rng *xrand.RNG) *Clip {
	clip := &Clip{Dataset: ds, ID: clipID, Frames: make([]*Frame, 0, frames)}
	for i := 0; i < frames; i++ {
		f := w.GenerateFrame(s, densityMul, rng)
		f.Dataset = ds
		f.Clip = clipID
		f.Index = i
		clip.Frames = append(clip.Frames, f)
	}
	return clip
}
