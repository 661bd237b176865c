package prefetch

import (
	"math"
	"slices"
	"sort"
	"sync"
	"testing"
)

func TestMarkovColdStartUniform(t *testing.T) {
	m, err := NewMarkov(4, 1)
	if err != nil {
		t.Fatal(err)
	}
	// With no observations every transition has probability alpha/(alpha·n).
	for i := 0; i < 4; i++ {
		var sum float64
		for j := 0; j < 4; j++ {
			p := m.Prob(i, j)
			if math.Abs(p-0.25) > 1e-12 {
				t.Fatalf("P(%d|%d) = %v, want 0.25", j, i, p)
			}
			sum += p
		}
		if math.Abs(sum-1) > 1e-12 {
			t.Fatalf("row %d sums to %v", i, sum)
		}
	}
}

func TestMarkovLearnsTransitions(t *testing.T) {
	m, err := NewMarkov(3, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Scene loop 0→1→2→0 observed many times.
	for i := 0; i < 50; i++ {
		m.Observe(0, 1)
		m.Observe(1, 2)
		m.Observe(2, 0)
	}
	if m.Observations() != 150 {
		t.Fatalf("observations %d", m.Observations())
	}
	// Smoothed estimate: (50+1)/(50+3) ≈ 0.962.
	if p := m.Prob(0, 1); math.Abs(p-51.0/53.0) > 1e-12 {
		t.Fatalf("P(1|0) = %v", p)
	}
	top := m.TopKInto(nil, 0, 2)
	if len(top) != 2 || top[0].Model != 1 {
		t.Fatalf("TopKInto(nil, 0, 2) = %+v", top)
	}
	if top[0].Prob <= top[1].Prob {
		t.Fatalf("TopK not sorted: %+v", top)
	}
	// Row stays normalized after learning.
	row := m.Row(1)
	var sum float64
	for _, p := range row {
		sum += p
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Fatalf("row sums to %v", sum)
	}
}

func TestMarkovTopKExcludesCurrentAndClamps(t *testing.T) {
	m, _ := NewMarkov(3, 1)
	top := m.TopKInto(nil, 1, 10)
	if len(top) != 2 {
		t.Fatalf("TopK clamp: %+v", top)
	}
	for _, p := range top {
		if p.Model == 1 {
			t.Fatalf("TopK includes current model: %+v", top)
		}
	}
	// Uniform ties break by model index, deterministically.
	if top[0].Model != 0 || top[1].Model != 2 {
		t.Fatalf("tie-break order: %+v", top)
	}
	if m.TopKInto(nil, -1, 2) != nil || m.TopKInto(nil, 3, 2) != nil || m.TopKInto(nil, 0, 0) != nil {
		t.Fatal("out-of-range TopK should be nil")
	}
}

func TestMarkovIgnoresInvalidObservations(t *testing.T) {
	m, _ := NewMarkov(3, 1)
	m.Observe(-1, 0)
	m.Observe(0, 3)
	m.Observe(2, 2) // self-transition
	if m.Observations() != 0 {
		t.Fatalf("invalid observations recorded: %d", m.Observations())
	}
}

func TestMarkovSmoothingDefaultsAndErrors(t *testing.T) {
	if _, err := NewMarkov(0, 1); err == nil {
		t.Fatal("zero-size model accepted")
	}
	m, err := NewMarkov(2, -5) // alpha defaults to 1
	if err != nil {
		t.Fatal(err)
	}
	if p := m.Prob(0, 1); math.Abs(p-0.5) > 1e-12 {
		t.Fatalf("default-alpha prob %v", p)
	}
}

// TestMarkovConcurrent hammers Observe/TopKInto/Prob from many goroutines;
// run with -race.
func TestMarkovConcurrent(t *testing.T) {
	m, _ := NewMarkov(5, 1)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				m.Observe(g%5, (g+i)%5)
				_ = m.TopKInto(nil, i%5, 3)
				_ = m.Prob(i%5, (i+1)%5)
			}
		}(g)
	}
	wg.Wait()
	if m.Observations() == 0 {
		t.Fatal("no observations recorded")
	}
}

// TestMarkovTopKIntoMatchesSortedRow checks TopKInto, reusing one
// buffer throughout, against the full smoothed row sorted stably by
// descending probability and then model index, for every current model
// and k, on counts with many tied probabilities.
func TestMarkovTopKIntoMatchesSortedRow(t *testing.T) {
	const n = 7
	m, _ := NewMarkov(n, 0.5)
	for i := 0; i < 60; i++ {
		m.Observe(i%n, (i*i+3)%n)
	}
	var buf []Prediction
	for current := -1; current <= n; current++ {
		for k := -1; k <= n+1; k++ {
			var want []Prediction
			if current >= 0 && k > 0 && current < n {
				for j, p := range m.Row(current) {
					if j != current {
						want = append(want, Prediction{Model: j, Prob: p})
					}
				}
				sort.SliceStable(want, func(a, b int) bool {
					if want[a].Prob != want[b].Prob {
						return want[a].Prob > want[b].Prob
					}
					return want[a].Model < want[b].Model
				})
				want = want[:min(k, len(want))]
			}
			buf = m.TopKInto(buf, current, k)
			if !slices.Equal(buf, want) {
				t.Fatalf("TopKInto(%d, %d) = %+v, want %+v", current, k, buf, want)
			}
			if got := m.TopKInto(nil, current, k); !slices.Equal(got, want) {
				t.Fatalf("TopKInto(nil, %d, %d) = %+v, want %+v", current, k, got, want)
			}
		}
	}
}
