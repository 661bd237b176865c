package eval

import (
	"fmt"
	"io"
	"sort"
	"time"

	"anole/internal/core"
	"anole/internal/detect"
	"anole/internal/device"
	"anole/internal/netsim"
	"anole/internal/stats"
	"anole/internal/synth"
	"anole/internal/xrand"
)

// OffloadRow is one link-stability setting's outcome for the
// cloud-offloading strategy, with Anole's local numbers alongside.
type OffloadRow struct {
	// Stability is the link-stickiness knob in [0,1].
	Stability float64
	// DownFrac is the measured fraction of frames with the link down.
	DownFrac float64
	// Offload metrics: mean and p99 end-to-end latency of delivered
	// frames, the fraction of frames missing the deadline (including
	// drops), and detection F1 with dropped frames scored as empty
	// predictions.
	OffloadMeanMs  float64
	OffloadP99Ms   float64
	OffloadMissPct float64
	OffloadF1      float64
}

// OffloadResult is the M1 motivation experiment (§I): offloading every
// frame to a cloud-hosted deep model is accurate when the link holds, but
// a moving device's link does not hold — latency becomes unpredictable
// and outages drop frames — while Anole's fully local path is flat. This
// quantifies the paper's premise rather than any of its figures.
type OffloadResult struct {
	Deadline time.Duration
	Frames   int
	Rows     []OffloadRow
	// AnoleMeanMs / AnoleP99Ms / AnoleMissPct / AnoleF1 are the local
	// baseline (link-independent).
	AnoleMeanMs  float64
	AnoleP99Ms   float64
	AnoleMissPct float64
	AnoleF1      float64
}

// RunOffload streams `frames` test frames at a 33 ms deadline through (a)
// Anole locally on a TX2 NX and (b) a cloud offloading strategy (deep
// model server, compressed frame upload) over links of decreasing
// stability.
func RunOffload(l *Lab, frames int, stabilities []float64) (OffloadResult, error) {
	if frames <= 0 {
		frames = 600
	}
	if len(stabilities) == 0 {
		stabilities = []float64{1, 0.9, 0.6, 0.3, 0}
	}
	const deadline = 100 * time.Millisecond // a lenient 100 ms interaction budget
	test := l.Corpus.Frames(synth.Test)
	if len(test) == 0 {
		return OffloadResult{}, fmt.Errorf("eval: no test frames")
	}
	stream := make([]*synth.Frame, frames)
	for i := range stream {
		stream[i] = test[i%len(test)]
	}
	res := OffloadResult{Deadline: deadline, Frames: frames}

	// Local Anole on the TX2 NX.
	sim := mustSim(device.JetsonTX2NX)
	rt, err := core.NewRuntime(l.Bundle, core.RuntimeConfig{CacheSlots: 5, Device: sim})
	if err != nil {
		return OffloadResult{}, err
	}
	var anoleLat []float64
	var anoleAgg stats.PRF1
	misses := 0
	for _, f := range stream {
		fr, err := rt.ProcessFrame(f)
		if err != nil {
			return OffloadResult{}, err
		}
		anoleLat = append(anoleLat, fr.Latency.Seconds()*1e3)
		anoleAgg = anoleAgg.Add(fr.Metrics)
		if fr.Latency > deadline {
			misses++
		}
	}
	res.AnoleMeanMs = stats.Mean(anoleLat)
	res.AnoleP99Ms = stats.Quantile(anoleLat, 0.99)
	res.AnoleMissPct = 100 * float64(misses) / float64(frames)
	res.AnoleF1 = anoleAgg.F1

	// Offloading: a compressed 720p frame upstream (~25 KB after JPEG),
	// detections downstream, cloud-side deep inference at 10× TX2
	// throughput.
	const (
		upBytes   = 25 << 10
		downBytes = 2 << 10
	)
	deep := deepModelCost(l, l.World.Config().Cells())
	cloudInfer := time.Duration(deep.ScaledFLOPs() / (10 * 1330e9) * float64(time.Second))
	// The cloud's SDM scores each frame the same whatever the link does,
	// so the stream is scored once for every stability.
	sdm := detect.ScoreTable(l.SDM.Detectors(), stream)[0]

	for _, stability := range stabilities {
		link, err := netsim.NewLink(netsim.DefaultConfig(stability),
			xrand.NewLabeled(l.Config.Seed, fmt.Sprintf("offload-%v", stability)))
		if err != nil {
			return OffloadResult{}, err
		}
		var delivered []float64
		var agg stats.PRF1
		missed := 0
		for i, f := range stream {
			link.Step()
			transfer, ok := link.Transfer(upBytes, downBytes)
			if !ok {
				// Outage: the frame is dropped — every object missed.
				missed++
				agg = agg.Add(stats.ComputePRF1(0, 0, len(f.Objects)))
				continue
			}
			lat := transfer + cloudInfer
			delivered = append(delivered, lat.Seconds()*1e3)
			if lat > deadline {
				missed++
			}
			agg = agg.Add(sdm[i])
		}
		sort.Float64s(delivered)
		row := OffloadRow{
			Stability:      stability,
			DownFrac:       link.DownFraction(),
			OffloadMissPct: 100 * float64(missed) / float64(frames),
			OffloadF1:      agg.F1,
		}
		if len(delivered) > 0 {
			row.OffloadMeanMs = stats.Mean(delivered)
			row.OffloadP99Ms = stats.Quantile(delivered, 0.99)
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// Render writes the comparison.
func (r OffloadResult) Render(w io.Writer) {
	fmt.Fprintf(w, "Motivation M1 — cloud offloading vs local Anole (%d frames, %s deadline)\n",
		r.Frames, r.Deadline)
	fmt.Fprintf(w, "%-11s %-9s %-10s %-10s %-10s %-8s\n",
		"stability", "down%", "mean(ms)", "p99(ms)", "miss%", "F1")
	for _, row := range r.Rows {
		fmt.Fprintf(w, "%-11.2f %-9.1f %-10.1f %-10.1f %-10.1f %-8.3f\n",
			row.Stability, 100*row.DownFrac, row.OffloadMeanMs, row.OffloadP99Ms,
			row.OffloadMissPct, row.OffloadF1)
	}
	fmt.Fprintf(w, "%-11s %-9s %-10.1f %-10.1f %-10.1f %-8.3f\n",
		"Anole", "local", r.AnoleMeanMs, r.AnoleP99Ms, r.AnoleMissPct, r.AnoleF1)
}
