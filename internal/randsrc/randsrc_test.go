package randsrc

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// TestMatchesMathRand draws well past one generator period of state words
// (607) from New and from math/rand side by side, through every *rand.Rand
// method the program uses, and requires every value to agree.
func TestMatchesMathRand(t *testing.T) {
	seeds := []int64{0, -1, math.MinInt64, int32max, int32max - 1, 89482311, 1 << 40, math.MaxInt64}
	pick := rand.New(rand.NewSource(20240607))
	for i := 0; i < 100; i++ {
		seeds = append(seeds, int64(pick.Uint64()))
	}
	for _, seed := range seeds {
		got, want := New(seed), rand.New(rand.NewSource(seed))
		for i := 0; i < 1500; i++ {
			if i == 1000 {
				// Re-seeding restarts the lazy seeding mid-stream.
				got.Seed(seed ^ 0x5eed)
				want.Seed(seed ^ 0x5eed)
			}
			var g, w any
			switch i % 8 {
			case 0:
				g, w = got.Int63(), want.Int63()
			case 1:
				g, w = got.Uint64(), want.Uint64()
			case 2:
				g, w = got.Intn(1000+i), want.Intn(1000+i)
			case 3:
				g, w = math.Float64bits(got.Float64()), math.Float64bits(want.Float64())
			case 4:
				g, w = math.Float64bits(got.NormFloat64()), math.Float64bits(want.NormFloat64())
			case 5:
				g, w = math.Float64bits(got.ExpFloat64()), math.Float64bits(want.ExpFloat64())
			case 6:
				gp, wp := got.Perm(9), want.Perm(9)
				for j := range gp {
					if gp[j] != wp[j] {
						t.Fatalf("seed %d draw %d: Perm %v, math/rand %v", seed, i, gp, wp)
					}
				}
				continue
			case 7:
				g, w = got.Int31n(int32(7+i)), want.Int31n(int32(7+i))
			}
			if g != w {
				t.Fatalf("seed %d draw %d: got %v, math/rand %v", seed, i, g, w)
			}
		}
	}
}

// TestLehmerPowers checks the power table against math/rand's serial
// Schrage step, the definition it replaces.
func TestLehmerPowers(t *testing.T) {
	x := int32(1)
	for k := 1; k <= seedSteps; k++ {
		x = seedrand(x)
		if k <= 20 {
			continue
		}
		if got := lehmerPow[(k-21)/3][(k-21)%3]; got != uint64(x) {
			t.Fatalf("48271^%d mod (2³¹−1) = %d, table has %d", k, x, got)
		}
	}
}

// seedrand is math/rand's serial seeding step (Schrage's method).
func seedrand(x int32) int32 {
	const a, q, r = 48271, 44488, 3399
	hi, lo := x/q, x%q
	x = a*lo - r*hi
	if x < 0 {
		x += int32max
	}
	return x
}

// BenchmarkSeed times a fresh source and its first n draws. A fleet device
// draws about 4 jitter values, 12 for its event trace, 30–60 in its run
// and 130–190 for its solar trace; n = 700 runs past the lazily seeded
// window.
func BenchmarkSeed(b *testing.B) {
	for _, n := range []int{4, 50, 200, 700} {
		b.Run(fmt.Sprintf("randsrc/draws=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				r := New(int64(i))
				for j := 0; j < n; j++ {
					r.Uint64()
				}
			}
		})
		b.Run(fmt.Sprintf("math-rand/draws=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				r := rand.New(rand.NewSource(int64(i)))
				for j := 0; j < n; j++ {
					r.Uint64()
				}
			}
		})
	}
}
