package detect

import (
	"math"
	"sync"
	"testing"

	"anole/internal/synth"
	"anole/internal/tensor"
	"anole/internal/xrand"
)

// TestSharedDetectorConcurrentUse pins that one frozen Detector is safe
// to share: goroutines run DetectFrame, and the head's Infer with a nil
// scratch, on the same Detector at once, each drawing its working set
// from the shared pool, and every result equals the serial one. Run
// under -race it also checks that no call writes shared state.
func TestSharedDetectorConcurrentUse(t *testing.T) {
	w := newTestWorld(t, 50)
	rng := xrand.New(51)
	frames := genFrames(w, synth.Scene{Weather: synth.Clear, Location: synth.Urban, Time: synth.Daytime}, 8, rng)
	d := NewDetector("shared", Compressed, 8, rng)

	// Serial reference: every frame's predictions, and the head's output
	// on each frame's first cell.
	wantPreds := make([][]CellPred, len(frames))
	cells := make([]tensor.Vector, len(frames))
	wantOut := make([]tensor.Vector, len(frames))
	for i, f := range frames {
		wantPreds[i] = d.DetectFrame(nil, f)
		cells[i] = synth.CellInput(nil, f, 0, synth.FrameFeature(f))
		wantOut[i] = d.Weights().Infer(nil, cells[i], nil)
	}

	const workers, passes = 4, 3
	errs := make(chan string, workers)
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var preds []CellPred
			out := tensor.NewVector(d.Weights().OutDim())
			for p := 0; p < passes; p++ {
				for k := range frames {
					i := (k + g) % len(frames) // workers start on different frames
					preds = d.DetectFrame(preds, frames[i])
					for c, want := range wantPreds[i] {
						if preds[c] != want {
							errs <- "DetectFrame differs from the serial run"
							return
						}
					}
					d.Weights().Infer(out, cells[i], nil)
					for j, v := range wantOut[i] {
						if math.Float64bits(out[j]) != math.Float64bits(v) {
							errs <- "Infer differs from the serial run"
							return
						}
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for msg := range errs {
		t.Fatal(msg)
	}
}
