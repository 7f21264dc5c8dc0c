package sim

import (
	"math"
	"testing"
)

// The oracle in these tests is the embedded rand.Rand: twin.Rand.NormFloat64
// is math/rand's own sampler over the same SplitMix64 stream, whose values
// the Go 1 compatibility promise freezes.

// oracleSeeds returns n stream states for the oracle tests, followed by
// rejectedStarts' states.
func oracleSeeds(tb testing.TB, n int) []uint64 {
	gen := NewRNG(20261019)
	seeds := []uint64{0}
	for len(seeds) < n {
		seeds = append(seeds, gen.Uint64())
	}
	base, wedge := rejectedStarts(tb)
	return append(append(seeds, base...), wedge...)
}

// rejectedStarts returns stream states whose very first normal draw fails
// the ziggurat fast path: four in the base strip (i == 0, math/rand's tail
// loop) and four in a wedge (i > 0). It finds them by scanning states in
// order and asking math/rand alone: the fast path consumes exactly one
// draw, so a call that moves the state further was rejected, and the strip
// is the low seven bits of that first 32-bit draw.
func rejectedStarts(tb testing.TB) (base, wedge []uint64) {
	const want = 4
	for s := uint64(0); len(base) < want || len(wedge) < want; s++ {
		if s == 1<<24 {
			tb.Fatalf("scanned %d states: found %d base-strip and %d wedge rejections", s, len(base), len(wedge))
		}
		twin := NewRNG(s)
		twin.Rand.NormFloat64()
		if twin.Mark() == s+gamma {
			continue
		}
		if int32(NewRNG(s).Rand.Uint32())&0x7F == 0 {
			if len(base) < want {
				base = append(base, s)
			}
		} else if len(wedge) < want {
			wedge = append(wedge, s)
		}
	}
	return base, wedge
}

// TestNormFloat64BitIdentical holds RNG.NormFloat64 to math/rand's
// NormFloat64 on a twin stream: the same value bits and the same stream
// position after every draw, from over 200 start states, including ones
// whose first draw takes math/rand's tail and wedge paths.
func TestNormFloat64BitIdentical(t *testing.T) {
	const draws = 10_000
	rejected := 0
	for _, seed := range oracleSeeds(t, 200) {
		r, twin := NewRNG(seed), NewRNG(seed)
		for k := 0; k < draws; k++ {
			before := twin.Mark()
			got, want := r.NormFloat64(), twin.Rand.NormFloat64()
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("seed %#x draw %d: NormFloat64 = %v (%#x), math/rand %v (%#x)",
					seed, k, got, math.Float64bits(got), want, math.Float64bits(want))
			}
			if r.Mark() != twin.Mark() {
				t.Fatalf("seed %#x draw %d: Mark %#x, math/rand leaves %#x", seed, k, r.Mark(), twin.Mark())
			}
			if twin.Mark() != before+gamma {
				rejected++
			}
		}
	}
	if rejected == 0 {
		t.Fatal("no draw left the fast path: the fallback went untested")
	}
}

// skipMarks returns where SkipNormFloat64(n) leaves a stream started at
// seed, and where n calls of math/rand's NormFloat64 leave it.
func skipMarks(seed uint64, n int) (got, want uint64) {
	r := NewRNG(seed)
	r.SkipNormFloat64(n)
	twin := NewRNG(seed)
	for k := 0; k < n; k++ {
		twin.Rand.NormFloat64()
	}
	return r.Mark(), twin.Mark()
}

// TestSkipNormFloat64BitIdentical holds SkipNormFloat64(n) to n calls of
// math/rand's NormFloat64: the stream ends at the same position for n = 0,
// 1 and random n up to 5·10⁴, and does not move for a negative n.
func TestSkipNormFloat64BitIdentical(t *testing.T) {
	lengths := NewRNG(7)
	for _, seed := range oracleSeeds(t, 200) {
		for _, n := range []int{-1, 0, 1, 1 + lengths.Intn(50_000)} {
			if got, want := skipMarks(seed, n); got != want {
				t.Fatalf("seed %#x: SkipNormFloat64(%d) leaves Mark %#x, math/rand %#x", seed, n, got, want)
			}
		}
	}
}

func FuzzSkipNormFloat64(f *testing.F) {
	base, wedge := rejectedStarts(f)
	f.Add(uint64(0), uint16(0))
	f.Add(base[0], uint16(1))
	f.Add(wedge[0], uint16(1))
	f.Add(base[1], uint16(768))
	f.Add(wedge[1], uint16(65535))
	f.Fuzz(func(t *testing.T, seed uint64, n uint16) {
		if got, want := skipMarks(seed, int(n)); got != want {
			t.Fatalf("seed %#x: SkipNormFloat64(%d) leaves Mark %#x, math/rand %#x", seed, n, got, want)
		}
	})
}
