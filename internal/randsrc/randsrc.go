// Package randsrc provides math/rand's default generator with a faster
// seeder. New(seed) draws exactly the values rand.New(rand.NewSource(seed))
// draws, through every *rand.Rand method, so switching a call site changes
// no result bit.
//
// math/rand seeds its additive lagged-Fibonacci generator from a serial
// Lehmer chain x[k+1] = 48271·x[k] mod (2³¹−1), 1841 steps long, each step
// a Schrage division that waits on the one before. Here the k-th chain value
// is 48271^k·seed mod (2³¹−1), with the powers tabled once at init and each
// product reduced by the Mersenne identity 2³¹ ≡ 1. The values are then
// independent multiplies the CPU can overlap, and any state word can be
// computed on its own. So the words are seeded in chunks just ahead of
// their first read: a source that draws a few values (a device's jitter,
// its event trace) seeds a few dozen words instead of all 607.
package randsrc

import "math/rand"

const (
	rngLen   = 607
	rngTap   = 273
	rngMask  = 1<<63 - 1
	int32max = 1<<31 - 1

	// seedSteps is the length of math/rand's seeding chain: 20 warm-up
	// steps, then three per state word.
	seedSteps = 20 + 3*rngLen
)

// lehmerPow[i] holds 48271^k mod (2³¹−1) for the three chain steps k
// that build state word i.
var lehmerPow [rngLen][3]uint64

func init() {
	p := uint64(1)
	for k := 1; k <= seedSteps; k++ {
		p = p * 48271 % int32max
		if k > 20 {
			lehmerPow[(k-21)/3][(k-21)%3] = p
		}
	}
}

// mulMod returns a·b mod (2³¹−1) for a, b in [1, 2³¹−1). Two folds of
// 2³¹ ≡ 1 suffice: the first leaves r < 2³², the second a value in
// [0, 2³¹−1], and since 2³¹−1 is prime the product is never ≡ 0, so
// neither 0 nor 2³¹−1 can come out.
func mulMod(a, b uint64) uint64 {
	p := a * b // < 2⁶²
	r := p&int32max + p>>31
	return r&int32max + r>>31
}

// New returns a *rand.Rand whose every draw equals that of
// rand.New(rand.NewSource(seed)).
//
// New is kept out of line: inlined into trace.GenerateSolar, it slowed that
// function's per-sample loop by about 15% (Go 1.24, amd64), although the
// draws themselves cost the same as math/rand's.
//
//go:noinline
func New(seed int64) *rand.Rand {
	s := &source{}
	s.Seed(seed)
	return rand.New(s)
}

// source is math/rand's rngSource: same state, same step, same outputs.
type source struct {
	tap  int
	feed int
	vec  [rngLen]int64

	// Seeding is lazy: vec[feedLo:rngLen−rngTap] and vec[tapLo:] hold
	// seeded words, and the rest is seeded in chunks just before the feed
	// or the tap first reaches it. Over the first draws the feed walks down
	// from rngLen−rngTap−1 to 0 and the tap from rngLen−1 to rngLen−rngTap,
	// after which every word is seeded. Each index turns on the slow path
	// only when it drops below its limit: the chunk boundary while
	// seeding, then 0, where it wraps as in math/rand.
	x               uint64 // the normalised seed: the Lehmer chain's start
	feedLo, tapLo   int
	feedLim, tapLim int
}

// seedChunk is how many words are seeded at once ahead of the feed or tap.
const seedChunk = 16

// Seed implements rand.Source with math/rand's seeding semantics.
func (s *source) Seed(seed int64) {
	s.tap = 0
	s.feed = rngLen - rngTap

	seed %= int32max
	if seed < 0 {
		seed += int32max
	}
	if seed == 0 {
		seed = 89482311
	}
	s.x = uint64(seed)
	s.feedLo, s.feedLim = rngLen-rngTap, rngLen-rngTap
	s.tapLo, s.tapLim = rngLen, rngLen
}

// Int63 implements rand.Source. It repeats Uint64's step rather than
// calling it: the slow-path call puts the step over the inlining budget,
// and most *rand.Rand methods draw through Int63.
func (s *source) Int63() int64 {
	s.tap--
	s.feed--
	if s.tap < s.tapLim || s.feed < s.feedLim {
		s.turn()
	}
	x := s.vec[s.feed] + s.vec[s.tap]
	s.vec[s.feed] = x
	return x & rngMask
}

// Uint64 implements rand.Source64.
func (s *source) Uint64() uint64 {
	s.tap--
	s.feed--
	if s.tap < s.tapLim || s.feed < s.feedLim {
		s.turn()
	}
	x := s.vec[s.feed] + s.vec[s.tap]
	s.vec[s.feed] = x
	return uint64(x)
}

// turn is Uint64's slow path: it wraps an index that ran below 0 and seeds
// the chunk at and below an index that reached unseeded words.
func (s *source) turn() {
	if s.tap < 0 {
		s.tap += rngLen
	}
	if s.feed < 0 {
		s.feed += rngLen
	}
	if s.feed < s.feedLo {
		lo := max(s.feed+1-seedChunk, 0)
		s.seedWords(lo, s.feedLo)
		s.feedLo = lo
	}
	if s.tap >= rngLen-rngTap && s.tap < s.tapLo {
		lo := max(s.tap+1-seedChunk, rngLen-rngTap)
		s.seedWords(lo, s.tapLo)
		s.tapLo = lo
	}
	// Once a range is fully seeded its limit falls to 0, the wrap point.
	s.feedLim = s.feedLo
	s.tapLim = 0
	if s.tapLo > rngLen-rngTap {
		s.tapLim = s.tapLo
	}
}

// seedWords sets vec[lo:hi] as math/rand's seeder leaves it.
func (s *source) seedWords(lo, hi int) {
	pows, cooked, vec := lehmerPow[lo:hi], rngCooked[lo:hi], s.vec[lo:hi]
	for i, pw := range pows {
		u := int64(mulMod(pw[0], s.x)) << 40
		u ^= int64(mulMod(pw[1], s.x)) << 20
		u ^= int64(mulMod(pw[2], s.x))
		vec[i] = u ^ cooked[i]
	}
}
