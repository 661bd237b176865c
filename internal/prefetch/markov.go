// Package prefetch anticipates model switches and warms the model cache
// ahead of them, hiding the device↔cloud fetch latency that motivates
// Anole (§I): a moving device crosses scenes faster than it can pull the
// matching compressed model over a degraded wireless link, so the next
// model must already be resident when the decision model switches to it.
//
// Three pieces compose:
//
//   - Markov, an online scene-transition model learned incrementally
//     from the runtime's observed model-switch sequence, predicting the
//     likeliest next models;
//   - Scheduler, which turns those predictions into background fetches
//     into the cache — budgeted, cancellable, and always yielding to the
//     on-demand miss path;
//   - LinkFetcher, the Fetcher that moves the bytes over a simulated
//     netsim.Link in frame-tick time; a background transfer completes
//     inside the Tick that passes its deadline.
//
// All types are safe for concurrent use; core.MultiRuntime shares one
// Scheduler across every stream.
package prefetch

import (
	"cmp"
	"fmt"
	"slices"
	"sync"
)

// Prediction is one candidate next model with its estimated transition
// probability.
type Prediction struct {
	Model int
	Prob  float64
}

// Markov is an online first-order model of the switch sequence: a
// row-normalized transition matrix over model indices with Laplace
// smoothing, updated in O(1) per observed switch. It is safe for
// concurrent use.
type Markov struct {
	mu     sync.RWMutex
	n      int
	alpha  float64
	counts []float64 // n×n, row-major
	rowSum []float64
	obs    int64
}

// NewMarkov creates a transition model over n models. alpha is the
// Laplace pseudo-count added to every cell (≤0 selects 1); it keeps
// unseen transitions at a small nonzero probability so a cold-start
// model still ranks candidates.
func NewMarkov(n int, alpha float64) (*Markov, error) {
	if n <= 0 {
		return nil, fmt.Errorf("prefetch: %d models", n)
	}
	if alpha <= 0 {
		alpha = 1
	}
	return &Markov{
		n:      n,
		alpha:  alpha,
		counts: make([]float64, n*n),
		rowSum: make([]float64, n),
	}, nil
}

// NumModels returns the matrix dimension.
func (m *Markov) NumModels() int {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.n
}

// Grow widens the transition matrix to n models, preserving every
// recorded count — the continual-adaptation path, where a published
// generation appends models to the repertoire. Rows and columns for the
// new models start empty (Laplace smoothing keeps them rankable). A
// Grow to the current size or smaller is a no-op.
func (m *Markov) Grow(n int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if n <= m.n {
		return
	}
	counts := make([]float64, n*n)
	for i := 0; i < m.n; i++ {
		copy(counts[i*n:i*n+m.n], m.counts[i*m.n:(i+1)*m.n])
	}
	rowSum := make([]float64, n)
	copy(rowSum, m.rowSum)
	m.counts, m.rowSum, m.n = counts, rowSum, n
}

// Observations returns the number of recorded transitions.
func (m *Markov) Observations() int64 {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.obs
}

// Observe records one switch from model `from` to model `to`.
// Out-of-range indices and self-transitions are ignored (the runtime's
// switch sequence contains no self-transitions by construction).
func (m *Markov) Observe(from, to int) {
	if from < 0 || to < 0 || from == to {
		return
	}
	m.mu.Lock()
	if from < m.n && to < m.n {
		m.counts[from*m.n+to]++
		m.rowSum[from]++
		m.obs++
	}
	m.mu.Unlock()
}

// Prob returns the smoothed transition probability P(to | from):
// (count + alpha) / (rowSum + alpha·n).
func (m *Markov) Prob(from, to int) float64 {
	if from < 0 || to < 0 {
		return 0
	}
	m.mu.RLock()
	defer m.mu.RUnlock()
	if from >= m.n || to >= m.n {
		return 0
	}
	return (m.counts[from*m.n+to] + m.alpha) / (m.rowSum[from] + float64(m.alpha*float64(m.n)))
}

// Row returns the full smoothed distribution over next models given
// `from` (a fresh slice summing to 1).
func (m *Markov) Row(from int) []float64 {
	m.mu.RLock()
	defer m.mu.RUnlock()
	out := make([]float64, m.n)
	if from < 0 || from >= m.n {
		return out
	}
	denom := m.rowSum[from] + float64(m.alpha*float64(m.n))
	for j := 0; j < m.n; j++ {
		out[j] = (m.counts[from*m.n+j] + m.alpha) / denom
	}
	return out
}

// State copies out the transition matrix for checkpointing: dimension,
// smoothing, observation count, and the raw (unsmoothed) counts and
// row sums.
func (m *Markov) State() (n int, alpha float64, obs int64, counts, rowSum []float64) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	counts = make([]float64, len(m.counts))
	copy(counts, m.counts)
	rowSum = make([]float64, len(m.rowSum))
	copy(rowSum, m.rowSum)
	return m.n, m.alpha, m.obs, counts, rowSum
}

// RestoreState overwrites the transition counts from a checkpoint
// taken at dimension n. A checkpoint from a smaller repertoire
// restores into the leading n×n block (the repertoire grew after the
// snapshot — new models start empty exactly as Grow leaves them); a
// checkpoint from a larger repertoire is rejected, as it references
// models the current bundle does not have. The configured alpha is
// kept: smoothing is an owner-side parameter, not restored state.
func (m *Markov) RestoreState(n int, obs int64, counts, rowSum []float64) error {
	if n <= 0 || len(counts) != n*n || len(rowSum) != n {
		return fmt.Errorf("prefetch: markov restore geometry n=%d counts=%d rowSum=%d", n, len(counts), len(rowSum))
	}
	if obs < 0 {
		return fmt.Errorf("prefetch: markov restore negative observations %d", obs)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if n > m.n {
		return fmt.Errorf("prefetch: markov restore dimension %d exceeds current %d", n, m.n)
	}
	for i := range m.counts {
		m.counts[i] = 0
	}
	for i := range m.rowSum {
		m.rowSum[i] = 0
	}
	for i := 0; i < n; i++ {
		copy(m.counts[i*m.n:i*m.n+n], counts[i*n:(i+1)*n])
		m.rowSum[i] = rowSum[i]
	}
	m.obs = obs
	return nil
}

// TopKInto returns the k likeliest next models given the current one, in
// descending probability (ties broken by model index for determinism).
// The current model itself is excluded — prefetching what is already
// running is never useful. k is clamped to n-1. The result is written
// into dst's backing array, which grows only when its capacity is short
// of n-1: a caller that keeps the returned slice plans without
// allocating.
func (m *Markov) TopKInto(dst []Prediction, current, k int) []Prediction {
	dst = dst[:0]
	if current < 0 || k <= 0 {
		return dst
	}
	m.mu.RLock()
	if current >= m.n {
		m.mu.RUnlock()
		return dst
	}
	denom := m.rowSum[current] + float64(m.alpha*float64(m.n))
	for j, c := range m.counts[current*m.n : (current+1)*m.n] {
		if j != current {
			dst = append(dst, Prediction{Model: j, Prob: (c + m.alpha) / denom})
		}
	}
	m.mu.RUnlock()
	slices.SortStableFunc(dst, func(a, b Prediction) int {
		if c := cmp.Compare(b.Prob, a.Prob); c != 0 {
			return c
		}
		return cmp.Compare(a.Model, b.Model)
	})
	return dst[:min(k, len(dst))]
}
