package eval

import (
	"slices"
	"testing"

	"anole/internal/stats"
	"anole/internal/xrand"
)

// pooledAt returns the pooled counts of assignment pick (pick[i] is
// frame i's model).
func pooledAt(scores [][]stats.PRF1, pick []int) stats.PRF1 {
	var agg stats.PRF1
	for i, m := range pick {
		agg = agg.Add(scores[m][i])
	}
	return agg
}

// ratioCmp compares the pooled ratios 2TP/(2TP+FP+FN) of x and y exactly
// (an empty denominator is ratio 0): -1, 0 or +1.
func ratioCmp(x, y stats.PRF1) int {
	nx, dx := int64(2*x.TP), int64(2*x.TP+x.FP+x.FN)
	ny, dy := int64(2*y.TP), int64(2*y.TP+y.FP+y.FN)
	if dx == 0 {
		nx, dx = 0, 1
	}
	if dy == 0 {
		ny, dy = 0, 1
	}
	switch l, r := nx*dy, ny*dx; {
	case l < r:
		return -1
	case l > r:
		return 1
	}
	return 0
}

// TestPooledOracleMatchesBruteForce pins the Dinkelbach oracle on small
// random count tables: its pooled F1 equals the maximum over every
// per-frame assignment, found by enumeration, and is at least that of
// every other selector — each fixed model, the per-frame F1 argmax, and
// random assignments. The tables include frames where every model
// scores F1 0 and frames with no objects.
func TestPooledOracleMatchesBruteForce(t *testing.T) {
	rng := xrand.New(90)
	for trial := 0; trial < 400; trial++ {
		models, frames := 1+rng.Intn(3), 1+rng.Intn(6)
		scores := make([][]stats.PRF1, models)
		for m := range scores {
			scores[m] = make([]stats.PRF1, frames)
			for i := range scores[m] {
				tp := rng.Intn(4)
				if rng.Intn(3) == 0 {
					tp = 0
				}
				scores[m][i] = stats.ComputePRF1(tp, rng.Intn(6), rng.Intn(4))
			}
		}
		got := pooledOracle(scores)

		pick := make([]int, frames)
		var best stats.PRF1
		for {
			if a := pooledAt(scores, pick); ratioCmp(a, best) > 0 {
				best = a
			}
			i := 0
			for ; i < frames; i++ {
				if pick[i]++; pick[i] < models {
					break
				}
				pick[i] = 0
			}
			if i == frames {
				break
			}
		}
		if ratioCmp(got, best) != 0 {
			t.Fatalf("trial %d: oracle %+v, brute-force best %+v over %v", trial, got, best, scores)
		}

		selectors := [][]int{make([]int, frames), make([]int, frames)}
		for i := range pick {
			bestF1 := -1.0
			for m := range scores {
				if f1 := scores[m][i].F1; f1 > bestF1 {
					selectors[0][i], bestF1 = m, f1
				}
			}
			selectors[1][i] = rng.Intn(models)
		}
		for m := range scores {
			fixed := make([]int, frames)
			for i := range fixed {
				fixed[i] = m
			}
			selectors = append(selectors, fixed)
		}
		for k, sel := range selectors {
			if s := pooledAt(scores, sel); ratioCmp(s, got) > 0 {
				t.Fatalf("trial %d: selector %d pooled F1 %v above the oracle's %v", trial, k, s.F1, got.F1)
			}
		}
	}
}

// TestPooledOracleSkipsAllZeroFrames is the case the per-frame argmax
// got wrong: on a frame where every model scores F1 0, the oracle takes
// the model that adds no false positives.
func TestPooledOracleSkipsAllZeroFrames(t *testing.T) {
	scores := [][]stats.PRF1{
		{stats.ComputePRF1(5, 0, 0), stats.ComputePRF1(0, 40, 2)},
		{stats.ComputePRF1(4, 1, 1), stats.ComputePRF1(0, 0, 2)},
	}
	got := pooledOracle(scores)
	if want := stats.ComputePRF1(5, 0, 2); got != want {
		t.Fatalf("oracle %+v, want %+v", got, want)
	}
}

// TestWindowingPoolsCounts pins the windowing Fig. 8 plots and Table III
// and Fig. 10 pool with: 25 frames at window 10 give two full windows and
// a five-frame tail, a window ≤ 0 means 10, and a window of the whole run
// pools it.
func TestWindowingPoolsCounts(t *testing.T) {
	counts := make([]stats.PRF1, 25)
	for i := range counts {
		switch {
		case i < 10:
			counts[i] = stats.ComputePRF1(1, 0, 0)
		case i < 20:
			counts[i] = stats.ComputePRF1(0, 0, 1)
		default:
			counts[i] = stats.ComputePRF1(1, 1, 0)
		}
	}
	want := []float64{1, 0, stats.ComputePRF1(5, 5, 0).F1}
	for _, window := range []int{10, 0, -3} {
		if got := windowedF1(counts, window); !slices.Equal(got, want) {
			t.Fatalf("window %d: %v, want %v", window, got, want)
		}
	}
	if got, want := windowedF1(counts, len(counts)), stats.ComputePRF1(15, 5, 10).F1; len(got) != 1 || got[0] != want {
		t.Fatalf("whole-run window: %v, want [%v]", got, want)
	}
	if got := windowedF1(counts, 7); len(got) != 4 {
		t.Fatalf("window 7: %d windows, want 4", len(got))
	}
	if got := windowedF1(nil, 10); len(got) != 0 {
		t.Fatalf("no frames: %v", got)
	}
}
