// Package xrand provides a deterministic, splittable pseudo-random number
// generator used by every stochastic component in this repository.
//
// Reproducibility is a hard requirement for the experiment harness: every
// table and figure must regenerate identically from a root seed. The
// standard library's math/rand/v2 sources are deterministic but awkward to
// split hierarchically; xrand derives independent child streams from
// (seed, label) pairs with SplitMix64 mixing, so subsystems can create
// private streams without coordinating counter state.
package xrand

import (
	"math"
)

// RNG is a deterministic pseudo-random number generator based on the
// xoshiro256** algorithm seeded through SplitMix64. The zero value is not
// usable; construct with New or Split.
type RNG struct {
	s0, s1, s2, s3 uint64
	// spare holds a cached second Gaussian deviate from the Box-Muller
	// transform; spareOK reports whether it is valid.
	spare   float64
	spareOK bool
}

// New returns an RNG deterministically derived from seed.
func New(seed uint64) *RNG {
	sm := seed
	r := &RNG{}
	r.s0 = splitmix64(&sm)
	r.s1 = splitmix64(&sm)
	r.s2 = splitmix64(&sm)
	r.s3 = splitmix64(&sm)
	// Avoid the all-zero state, which xoshiro cannot escape.
	if r.s0|r.s1|r.s2|r.s3 == 0 {
		r.s0 = 0x9E3779B97F4A7C15
	}
	return r
}

// NewLabeled returns an RNG derived from seed and a string label, so that
// independent subsystems can obtain decorrelated streams from one root seed
// without consuming draws from each other.
func NewLabeled(seed uint64, label string) *RNG {
	h := fnv64a(label)
	return New(seed ^ (h * 0x9E3779B97F4A7C15))
}

// Split derives an independent child stream from the current generator
// state and an integer tag. The parent stream advances by one draw.
func (r *RNG) Split(tag uint64) *RNG {
	base := r.Uint64()
	return New(base ^ mix64(tag))
}

// Uint64 returns a uniformly distributed 64-bit value and advances the
// stream.
func (r *RNG) Uint64() uint64 {
	result := rotl(r.s1*5, 7) * 9
	t := r.s1 << 17
	r.s2 ^= r.s0
	r.s3 ^= r.s1
	r.s1 ^= r.s2
	r.s0 ^= r.s3
	r.s2 ^= t
	r.s3 = rotl(r.s3, 45)
	return result
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("xrand: Intn with non-positive n")
	}
	// Lemire's nearly-divisionless bounded sampling.
	bound := uint64(n)
	x := r.Uint64()
	hi, lo := mul128(x, bound)
	if lo < bound {
		threshold := (-bound) % bound
		for lo < threshold {
			x = r.Uint64()
			hi, lo = mul128(x, bound)
		}
	}
	return int(hi)
}

// Float64 returns a uniform value in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) * (1.0 / (1 << 53))
}

// Norm returns a standard normal deviate via the Box-Muller transform.
func (r *RNG) Norm() float64 {
	if r.spareOK {
		r.spareOK = false
		return r.spare
	}
	var u, v, s float64
	for {
		u = float64(2*r.Float64()) - 1
		v = float64(2*r.Float64()) - 1
		s = float64(u*u) + float64(v*v)
		if s > 0 && s < 1 {
			break
		}
	}
	f := math.Sqrt(-2 * math.Log(s) / s)
	r.spare = v * f
	r.spareOK = true
	return u * f
}

// NormMS returns a normal deviate with the given mean and standard
// deviation.
func (r *RNG) NormMS(mean, std float64) float64 {
	return mean + float64(std*r.Norm())
}

// Exp returns an exponentially distributed deviate with rate 1.
func (r *RNG) Exp() float64 {
	for {
		u := r.Float64()
		if u > 0 {
			return -math.Log(u)
		}
	}
}

// Gamma returns a gamma-distributed deviate with the given shape and
// scale 1, using the Marsaglia-Tsang method. It panics if shape <= 0.
func (r *RNG) Gamma(shape float64) float64 {
	if shape <= 0 {
		panic("xrand: Gamma with non-positive shape")
	}
	if shape < 1 {
		// Boost: Gamma(a) = Gamma(a+1) * U^(1/a).
		u := r.Float64()
		for u == 0 {
			u = r.Float64()
		}
		return r.Gamma(shape+1) * math.Pow(u, 1/shape)
	}
	d := shape - 1.0/3.0
	c := 1 / math.Sqrt(9*d)
	for {
		x := r.Norm()
		v := 1 + float64(c*x)
		if v <= 0 {
			continue
		}
		v = float64(v * v * v)
		u := r.Float64()
		if u < 1-float64(0.0331*x*x*x*x) {
			return d * v
		}
		if u > 0 && math.Log(u) < float64(0.5*x*x)+float64(d*(1-v+math.Log(v))) {
			return d * v
		}
	}
}

// Beta returns a Beta(a, b)-distributed deviate. It panics if a or b is
// non-positive.
func (r *RNG) Beta(a, b float64) float64 {
	if a <= 0 || b <= 0 {
		panic("xrand: Beta with non-positive parameters")
	}
	x := r.Gamma(a)
	y := r.Gamma(b)
	if x+y == 0 {
		return 0.5
	}
	return x / (x + y)
}

// Categorical draws an index in [0, len(weights)) with probability
// proportional to weights[i]. Non-positive weights are treated as zero. It
// panics if the weight sum is not positive.
func (r *RNG) Categorical(weights []float64) int {
	var total float64
	for _, w := range weights {
		if w > 0 {
			total += w
		}
	}
	if total <= 0 {
		panic("xrand: Categorical with non-positive weight sum")
	}
	u := r.Float64() * total
	var acc float64
	for i, w := range weights {
		if w <= 0 {
			continue
		}
		acc += w
		if u < acc {
			return i
		}
	}
	// Floating-point slack: return the last positive-weight index.
	for i := len(weights) - 1; i >= 0; i-- {
		if weights[i] > 0 {
			return i
		}
	}
	return len(weights) - 1
}

// Perm returns a pseudo-random permutation of [0, n).
func (r *RNG) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	r.ShuffleInts(p)
	return p
}

// ShuffleInts shuffles s in place with a Fisher-Yates pass.
func (r *RNG) ShuffleInts(s []int) {
	for i := len(s) - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		s[i], s[j] = s[j], s[i]
	}
}

// Shuffle swaps elements with the provided swap function, Fisher-Yates
// style, mirroring math/rand's API.
func (r *RNG) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		swap(i, j)
	}
}

// Bool returns true with probability p (clamped to [0, 1]).
func (r *RNG) Bool(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return r.Float64() < p
}

func rotl(x uint64, k uint) uint64 {
	return (x << k) | (x >> (64 - k))
}

func splitmix64(state *uint64) uint64 {
	*state += 0x9E3779B97F4A7C15
	z := *state
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

func mix64(x uint64) uint64 {
	s := x
	return splitmix64(&s)
}

func fnv64a(s string) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime
	}
	return h
}

// mul128 returns the 128-bit product of a and b as (hi, lo).
func mul128(a, b uint64) (hi, lo uint64) {
	const mask32 = 1<<32 - 1
	a0, a1 := a&mask32, a>>32
	b0, b1 := b&mask32, b>>32
	t := a1*b0 + (a0*b0)>>32
	w1 := t&mask32 + a0*b1
	hi = a1*b1 + t>>32 + w1>>32
	lo = a * b
	return hi, lo
}

// Dirichlet fills out with a draw from the Dirichlet distribution with
// the given concentration parameters (out is allocated when nil or
// mis-sized). It panics if alphas is empty or contains a non-positive
// value.
func (r *RNG) Dirichlet(out []float64, alphas []float64) []float64 {
	if len(alphas) == 0 {
		panic("xrand: Dirichlet with no parameters")
	}
	if len(out) != len(alphas) {
		out = make([]float64, len(alphas))
	}
	var sum float64
	for i, a := range alphas {
		if a <= 0 {
			panic("xrand: Dirichlet with non-positive concentration")
		}
		out[i] = r.Gamma(a)
		sum += out[i]
	}
	if sum == 0 {
		uniform := 1 / float64(len(out))
		for i := range out {
			out[i] = uniform
		}
		return out
	}
	for i := range out {
		out[i] /= sum
	}
	return out
}
