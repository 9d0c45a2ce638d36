// Package xrand provides the deterministic, splittable random source used by
// every generator and Monte Carlo simulation in this repository.
//
// Reproducibility contract: the same seed always produces the same stream,
// and Split derives statistically independent child streams whose output is
// stable regardless of how the parent stream is consumed afterwards. That
// lets the simulation engine hand each trial (and each parallel worker) its
// own child source while keeping results bit-identical across runs and
// across GOMAXPROCS settings.
//
// The generator is SplitMix64 (Steele, Lea & Flood 2014), chosen because it
// is tiny, fast, passes BigCrush, and — unlike math/rand's unexported state —
// supports cheap key-derived splitting.
package xrand

import (
	"math"
	"math/bits"
)

// Source is a deterministic 64-bit PRNG stream. The zero value is a valid
// stream seeded with 0.
type Source struct {
	state uint64
}

// New returns a source seeded with seed.
func New(seed uint64) *Source {
	return &Source{state: seed}
}

// golden is the SplitMix64 increment (2^64 / phi, odd).
//
// SplitMix64 is counter-based: each draw adds golden to the state and
// returns a fixed mix of the new state, so draw k after state s is
// mix(s + (k+1)·golden) and n draws leave the state at s + n·golden,
// whatever the draws were. BelowInto's vector kernel computes many draws
// at once on that property (TestCounterProperty pins it).
const golden = 0x9e3779b97f4a7c15

// Uint64 returns the next 64 pseudo-random bits.
//
//gicnet:hotpath
func (s *Source) Uint64() uint64 {
	s.state += golden
	z := s.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Next is Uint64 for a stream held by value: it returns the next 64 bits
// and the stream advanced past them. A loop that steps a local Source
// through Next keeps the state in a register, where Uint64's pointer
// receiver would store it back to memory on every draw.
//
//gicnet:hotpath
func (s Source) Next() (uint64, Source) {
	s.state += golden
	z := s.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31), s
}

// Split derives an independent child stream keyed by key. The parent stream
// is not advanced, so the child's output depends only on (parent seed, key).
func (s *Source) Split(key uint64) *Source {
	child := s.SplitAt(key)
	return &child
}

// SplitAt is Split returning the child by value, so hot loops (one child
// per Monte Carlo trial) can keep it on the stack and allocate nothing.
// The stream is identical to Split(key)'s.
//
//gicnet:hotpath
func (s *Source) SplitAt(key uint64) Source {
	// Mix the parent state with the key through one SplitMix64 round each
	// so children with adjacent keys are decorrelated.
	z := s.state + golden*(2*key+1)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return Source{state: z ^ (z >> 31)}
}

// Float64 returns a uniform float64 in [0, 1).
//
//gicnet:hotpath
func (s *Source) Float64() float64 {
	// 53 high bits scaled by 2^-53.
	return float64(s.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform int in [0, n). It panics if n <= 0.
//
//gicnet:hotpath
func (s *Source) Intn(n int) int {
	if n <= 0 {
		panic("xrand: Intn with non-positive n")
	}
	// Lemire's multiply-shift rejection method, bias-free.
	bound := uint64(n)
	for {
		hi, lo := bits.Mul64(s.Uint64(), bound)
		if lo >= bound || lo >= (-bound)%bound {
			return int(hi)
		}
	}
}

// IntnInto fills dst with len(dst) draws of Intn(n), in order: it gives
// the values and leaves the stream where dst[i] = Intn(n) for each i in
// turn would. It panics if n <= 0.
//
// For a power-of-two n Lemire's method never rejects ((-n) mod n = 0), so
// draw i is the top log2(n) bits of the stream's draw i, a pure function
// of its index on the counter property; on hosts with the vector kernel
// (see below.go) such n are drawn eight at a time. Every other n runs the
// scalar loop.
//
//gicnet:hotpath
func (s *Source) IntnInto(dst []int, n int) {
	if n <= 0 {
		panic("xrand: IntnInto with non-positive n")
	}
	if n&(n-1) == 0 {
		k := len(dst) &^ 7
		intnIntoPow2(s, dst[:k], n)
		dst = dst[k:]
	}
	for i := range dst {
		dst[i] = s.Intn(n)
	}
}

// Threshold returns the integer form of the event Float64() < p: Below(t)
// reports 1 for exactly the draws on which Float64() < p would hold. A
// draw is Float64() = m·2^-53 with m the top 53 bits of Uint64(), so for p
// in (0,1) the event is m < ceil(p·2^53), and shifting that bound back
// over the 11 dropped bits compares the raw 64-bit draw instead. p <= 0
// (and NaN) gives 0, which no draw is below; p >= 1 gives math.MaxUint64,
// which callers treat as certain without drawing — no uint64 threshold
// covers every draw, and a real one never reaches MaxUint64 because
// ceil(p·2^53) <= 2^53-1 for every float64 below 1.
func Threshold(p float64) uint64 {
	switch {
	case !(p > 0):
		return 0
	case p >= 1:
		return math.MaxUint64
	}
	return uint64(math.Ceil(math.Ldexp(p, 53))) << 11
}

// Below draws the next 64 bits and returns 1 when they fall below t and 0
// otherwise, as the borrow of an integer subtract (no branch). With
// t = Threshold(p) it decides exactly what Float64() < p decides and
// advances the stream by the same one draw.
//
//gicnet:hotpath
func (s *Source) Below(t uint64) uint64 {
	_, borrow := bits.Sub64(s.Uint64(), t, 0)
	return borrow
}

// Range returns a uniform float64 in [lo, hi).
//
//gicnet:hotpath
func (s *Source) Range(lo, hi float64) float64 {
	return lo + (hi-lo)*s.Float64()
}

// Bool returns true with probability p.
//
//gicnet:hotpath
func (s *Source) Bool(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return s.Float64() < p
}

// NormFloat64 returns a standard normal variate (Box-Muller, polar form).
func (s *Source) NormFloat64() float64 {
	for {
		u := 2*s.Float64() - 1
		v := 2*s.Float64() - 1
		q := u*u + v*v
		if q > 0 && q < 1 {
			return u * math.Sqrt(-2*math.Log(q)/q)
		}
	}
}

// ExpFloat64 returns an exponential variate with rate 1.
func (s *Source) ExpFloat64() float64 {
	for {
		u := s.Float64()
		if u > 0 {
			return -math.Log(u)
		}
	}
}

// LogNormal returns a log-normal variate with the given parameters of the
// underlying normal (mu, sigma). Used by the cable-length synthesizer.
func (s *Source) LogNormal(mu, sigma float64) float64 {
	return math.Exp(mu + sigma*s.NormFloat64())
}

// Perm returns a uniformly random permutation of [0, n).
func (s *Source) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		j := s.Intn(i + 1)
		p[i] = p[j]
		p[j] = i
	}
	return p
}

// Shuffle permutes the first n elements using swap, Fisher-Yates style.
func (s *Source) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		swap(i, s.Intn(i+1))
	}
}

// Pick returns a uniformly random index weighted by weights. Weights must
// be non-negative and not all zero; otherwise Pick returns 0.
func (s *Source) Pick(weights []float64) int {
	total := 0.0
	for _, w := range weights {
		if w > 0 {
			total += w
		}
	}
	if total <= 0 {
		return 0
	}
	r := s.Float64() * total
	for i, w := range weights {
		if w <= 0 {
			continue
		}
		r -= w
		if r < 0 {
			return i
		}
	}
	return len(weights) - 1
}
