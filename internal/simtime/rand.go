package simtime

import (
	"math/rand"
	"time"
)

// Rand is a deterministic random source for simulations: every run with
// the same seed produces the same event sequence.
//
// It keeps math/rand's Rand for the derived draws (Intn, Int63n, Float64,
// Read), over a splitmix64 source held inside the Rand. A fleet home seeds
// about fourteen generators, one per TCP stack and simulator component, so
// seeding cost is per-home cost: math/rand's own source fills 607 words on
// every seed and allocates 4.9 KB for them, where splitmix64 keeps one word
// and seeds with a single store.
type Rand struct {
	r   *rand.Rand
	src splitmix64
}

// NewRand returns a deterministic source for the given seed.
func NewRand(seed int64) *Rand {
	r := &Rand{src: splitmix64(seed)}
	r.r = rand.New(&r.src)
	return r
}

// Reseed rewinds the source to the start of the given seed's sequence, in
// place. A reseeded Rand produces exactly the byte stream NewRand(seed)
// would, without allocating. math/rand's Rand.Seed also drops the bytes a
// partial Read left buffered.
func (r *Rand) Reseed(seed int64) { r.r.Seed(seed) }

// Intn returns a uniform int in [0, n). It panics if n <= 0.
func (r *Rand) Intn(n int) int { return r.r.Intn(n) }

// Int63 returns a non-negative uniform int64.
func (r *Rand) Int63() int64 { return r.r.Int63() }

// Float64 returns a uniform float64 in [0, 1).
func (r *Rand) Float64() float64 { return r.r.Float64() }

// Duration returns a uniform duration in [0, d). A non-positive d yields 0.
func (r *Rand) Duration(d time.Duration) time.Duration {
	if d <= 0 {
		return 0
	}
	return time.Duration(r.r.Int63n(int64(d)))
}

// DurationRange returns a uniform duration in [lo, hi). If hi <= lo it
// returns lo.
func (r *Rand) DurationRange(lo, hi time.Duration) time.Duration {
	if hi <= lo {
		return lo
	}
	return lo + r.Duration(hi-lo)
}

// Jitter returns d perturbed by a uniform factor in [1-f, 1+f]. The factor
// f is clamped to [0, 1].
func (r *Rand) Jitter(d time.Duration, f float64) time.Duration {
	if f < 0 {
		f = 0
	}
	if f > 1 {
		f = 1
	}
	scale := 1 - f + 2*f*r.r.Float64()
	return time.Duration(float64(d) * scale)
}

// Bytes fills b with deterministic pseudo-random bytes. math/rand's
// Rand.Read always fills b and returns a nil error.
func (r *Rand) Bytes(b []byte) { _, _ = r.r.Read(b) }

// splitmix64 is Steele, Lea and Flood's SplittableRandom generator as
// published by Vigna: a Weyl sequence with step 0x9e3779b97f4a7c15, each
// state passed through a 64-bit mixing function. It implements
// rand.Source64.
type splitmix64 uint64

// Seed sets the state to the seed's bits.
func (s *splitmix64) Seed(seed int64) { *s = splitmix64(seed) }

// Uint64 advances the state and returns its mixed value.
func (s *splitmix64) Uint64() uint64 {
	*s += 0x9e3779b97f4a7c15
	z := uint64(*s)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Int63 returns the top 63 bits of the next Uint64.
func (s *splitmix64) Int63() int64 { return int64(s.Uint64() >> 1) }
