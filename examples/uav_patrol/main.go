// UAV patrol: the paper's motivating scenario. A drone patrols a city
// and its camera crosses scene boundaries rapidly — urban daylight, a
// highway stretch, a tunnel, nightfall. The example profiles Anole and
// the two single-model baselines (SDM, SSM) on the same corpus, then
// flies a patrol whose scene changes every few seconds and compares the
// three methods segment by segment.
//
//	go run ./examples/uav_patrol
package main

import (
	"fmt"
	"log"

	"anole/internal/baselines"
	"anole/internal/core"
	"anole/internal/detect"
	"anole/internal/sampling"
	"anole/internal/scene"
	"anole/internal/stats"
	"anole/internal/synth"
	"anole/internal/xrand"
)

// patrolLeg is one stretch of the flight plan with a fixed scene.
type patrolLeg struct {
	name   string
	scene  synth.Scene
	frames int
}

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	const seed = 7

	world, err := synth.NewWorld(synth.DefaultConfig(seed))
	if err != nil {
		return err
	}
	corpus := world.GenerateCorpus(synth.DefaultProfiles(0.4))
	train := corpus.Frames(synth.Train)
	val := corpus.Frames(synth.Val)

	fmt.Println("training Anole and baselines on the shared corpus...")
	bundle, err := core.Profile(corpus, core.ProfileConfig{
		Seed:    seed,
		Encoder: scene.EncoderConfig{Epochs: 25},
		Repertoire: scene.RepertoireConfig{
			N: 10, Delta: 0.05, MaxK: 7,
			Train: detect.TrainConfig{Epochs: 25},
		},
		Sampling: sampling.Config{Kappa: 900, AcceptF1: 0.35},
	})
	if err != nil {
		return err
	}
	rng := xrand.New(seed + 1)
	sdm, err := baselines.TrainSDM(train, val, detect.TrainConfig{Epochs: 20, RNG: rng.Split(1)})
	if err != nil {
		return err
	}
	ssm, err := baselines.TrainSSM(train, val, detect.TrainConfig{Epochs: 20, RNG: rng.Split(2)})
	if err != nil {
		return err
	}
	rt, err := core.NewRuntime(bundle, core.RuntimeConfig{CacheSlots: 4})
	if err != nil {
		return err
	}

	plan := []patrolLeg{
		{"downtown, noon", synth.Scene{Weather: synth.Clear, Location: synth.Urban, Time: synth.Daytime}, 80},
		{"elevated highway", synth.Scene{Weather: synth.Clear, Location: synth.Highway, Time: synth.Daytime}, 60},
		{"river tunnel", synth.Scene{Weather: synth.Clear, Location: synth.Tunnel, Time: synth.Daytime}, 50},
		{"residential, dusk", synth.Scene{Weather: synth.Overcast, Location: synth.Residential, Time: synth.DawnDusk}, 60},
		{"downtown, night", synth.Scene{Weather: synth.Clear, Location: synth.Urban, Time: synth.Night}, 80},
		{"rainy bridge, night", synth.Scene{Weather: synth.Rainy, Location: synth.Bridge, Time: synth.Night}, 50},
	}

	fmt.Printf("\n%-22s %-8s %-8s %-8s %-14s\n", "patrol leg", "Anole", "SDM", "SSM", "Anole's model")
	var totAnole, totSDM, totSSM stats.PRF1
	flightRNG := xrand.New(seed + 2)
	for _, leg := range plan {
		var legAnole, legSDM, legSSM stats.PRF1
		used := make(map[string]int)
		frames := make([]*synth.Frame, leg.frames)
		for i := range frames {
			frames[i] = world.GenerateFrame(leg.scene, 1, flightRNG)
			res, err := rt.ProcessFrame(frames[i])
			if err != nil {
				return err
			}
			legAnole = legAnole.Add(res.Metrics)
			used[bundle.Detectors[res.Used].Name]++
		}
		for _, m := range baselines.Score(sdm, frames) {
			legSDM = legSDM.Add(m)
		}
		for _, m := range baselines.Score(ssm, frames) {
			legSSM = legSSM.Add(m)
		}
		totAnole = totAnole.Add(legAnole)
		totSDM = totSDM.Add(legSDM)
		totSSM = totSSM.Add(legSSM)
		fmt.Printf("%-22s %-8.3f %-8.3f %-8.3f mostly %s\n",
			leg.name, legAnole.F1, legSDM.F1, legSSM.F1, modal(used))
	}
	fmt.Printf("%-22s %-8.3f %-8.3f %-8.3f\n", "whole patrol", totAnole.F1, totSDM.F1, totSSM.F1)

	st := rt.Stats()
	fmt.Printf("\nAnole switched models %d times (mean leg-on-one-model %.0f frames), cache miss rate %.2f\n",
		st.Switches, st.MeanSceneDuration(), st.MissRate)
	return nil
}

// modal returns the most frequent key of a non-empty count map.
func modal(counts map[string]int) string {
	best, bestN := "", -1
	for k, n := range counts {
		if n > bestN || (n == bestN && k < best) {
			best, bestN = k, n
		}
	}
	return best
}
