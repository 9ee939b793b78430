package sim

import (
	"math"
	"math/rand"
	"testing"
)

// modPow returns b**e mod (2**31 - 1).
func modPow(b, e uint64) uint64 {
	r := uint64(1)
	for b %= int32max; e > 0; e >>= 1 {
		if e&1 != 0 {
			r = r * b % int32max
		}
		b = b * b % int32max
	}
	return r
}

// modInv returns the inverse of x modulo the prime 2**31 - 1.
func modInv(x uint64) uint64 { return modPow(x, int32max-2) }

// sourceSeeds are the seeds TestSourceMatchesMathRand holds to
// math/rand: the edges of Seed's normalization, seeds for which one of
// the seeding generator's output steps is 1 or 2**31 - 2, and n seeds
// spread over the int64 range.
func sourceSeeds(n int) []int64 {
	const m = int32max
	seeds := []int64{
		0, 1, -1, 2, -2,
		m, -m, 2 * m, -2 * m, m - 1, -(m - 1), m + 1, -(m + 1),
		math.MaxInt64 / m * m, -(math.MaxInt64 / m * m),
		seedZero, -seedZero, seedZero + m, seedZero - m,
		math.MinInt64, math.MaxInt64, math.MinInt64 + 1, math.MaxInt64 - 1,
	}
	for _, step := range []uint64{21, 22, 23, 24, 100, 1000, 1839, 1840, 1841} {
		inv := modInv(modPow(seedA, step))
		seeds = append(seeds, int64(inv), int64(m-inv), int64(inv)+3*m, -int64(m-inv))
	}
	x := uint64(0x2545f4914f6cdd1d)
	for i := 0; i < n; i++ {
		x += 0x9e3779b97f4a7c15
		z := (x ^ x>>30) * 0xbf58476d1ce4e5b9
		z = (z ^ z>>27) * 0x94d049bb133111eb
		z ^= z >> 31
		switch i % 4 {
		case 0:
			seeds = append(seeds, int64(z)) // anywhere in int64
		case 1:
			seeds = append(seeds, int64(z>>33)) // below 2**31
		case 2:
			seeds = append(seeds, int64(i)) // small
		default:
			seeds = append(seeds, -int64(z>>20)) // negative
		}
	}
	return seeds
}

// drawsMatch compares n raw draws of source against math/rand's for
// seed, alternating Uint64 and Int63, and reports the first mismatch.
func drawsMatch(t *testing.T, seed int64, n int) bool {
	t.Helper()
	want := rand.NewSource(seed).(rand.Source64)
	got := new(source)
	got.Seed(seed)
	for i := 0; i < n; i++ {
		if i%2 == 0 {
			if g, w := got.Uint64(), want.Uint64(); g != w {
				t.Errorf("seed %d: Uint64 draw %d = %#x, math/rand draws %#x", seed, i, g, w)
				return false
			}
		} else if g, w := got.Int63(), want.Int63(); g != w {
			t.Errorf("seed %d: Int63 draw %d = %#x, math/rand draws %#x", seed, i, g, w)
			return false
		}
	}
	return true
}

// methodsMatch compares the *rand.Rand methods the model calls, drawn
// through a Stream, against the same calls on math/rand's generator.
func methodsMatch(t *testing.T, seed int64, n int) bool {
	t.Helper()
	want := rand.New(rand.NewSource(seed))
	s := NewStream(seed)
	got := s.Rand()
	for i := 0; i < n; i++ {
		if g, w := got.Float64(), want.Float64(); g != w {
			t.Errorf("seed %d: Float64 call %d = %v, math/rand returns %v", seed, i, g, w)
			return false
		}
		if g, w := got.Uint32(), want.Uint32(); g != w {
			t.Errorf("seed %d: Uint32 call %d = %v, math/rand returns %v", seed, i, g, w)
			return false
		}
		if g, w := got.ExpFloat64(), want.ExpFloat64(); g != w {
			t.Errorf("seed %d: ExpFloat64 call %d = %v, math/rand returns %v", seed, i, g, w)
			return false
		}
		bound := []int{1, 8, 100, 1<<31 - 1}[i%4]
		if g, w := got.Intn(bound), want.Intn(bound); g != w {
			t.Errorf("seed %d: Intn(%d) call %d = %v, math/rand returns %v", seed, bound, i, g, w)
			return false
		}
	}
	return true
}

// TestSourceMatchesMathRand holds the copied generator and its
// power-table seeding to math/rand bit for bit. 1,300 draws pass
// both lag indices' wrap points (tap wraps at the first draw, feed at
// the 335th) twice.
func TestSourceMatchesMathRand(t *testing.T) {
	seeds := sourceSeeds(2048)
	for _, seed := range seeds {
		if !drawsMatch(t, seed, 1300) {
			return
		}
	}
	for i, seed := range seeds {
		if i%8 == 0 && !methodsMatch(t, seed, 200) {
			return
		}
	}
}

// FuzzSource runs TestSourceMatchesMathRand's comparison on fuzzed
// seeds.
func FuzzSource(f *testing.F) {
	for _, seed := range sourceSeeds(8) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		if drawsMatch(t, seed, 1300) {
			methodsMatch(t, seed, 50)
		}
	})
}

// TestMulModEdges checks the two-fold reduction against % on the
// products a random sweep does not reach: those that reduce to 1 and
// to 2**31 - 2, the ends of its range, for every power in the seeding
// table and for the extreme operands.
func TestMulModEdges(t *testing.T) {
	xs := []uint64{1, 2, seedA, 1 << 30, 1<<31 - 3, int32max - 1}
	for i := range seedPow {
		for _, p := range seedPow[i] {
			xs = append(xs, uint64(p))
		}
	}
	for _, x := range xs {
		inv := modInv(x)
		for _, p := range []uint64{inv, int32max - inv, 1, int32max - 1} {
			if got, want := mulMod(x, p), x*p%int32max; got != want {
				t.Fatalf("mulMod(%d, %d) = %d, want %d", x, p, got, want)
			}
		}
		if mulMod(x, inv) != 1 || mulMod(x, int32max-inv) != int32max-1 {
			t.Fatalf("operands for %d do not reach the range ends", x)
		}
	}
}

// TestStreamBuildsAtFirstDraw: making a scheduler builds no
// generator; the first draw does, and later draws reuse it.
func TestStreamBuildsAtFirstDraw(t *testing.T) {
	s := NewScheduler(7)
	if s.rng.r != nil {
		t.Fatal("NewScheduler built a generator")
	}
	r := s.Rand()
	if r == nil || s.Rand() != r {
		t.Fatal("Rand did not build one generator and keep it")
	}
}
