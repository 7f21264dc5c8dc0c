package sim

import (
	"math"
	"testing"
)

func TestRNGDeterminism(t *testing.T) {
	a := NewRNG(42)
	b := NewRNG(42)
	for i := 0; i < 1000; i++ {
		if av, bv := a.Uint64(), b.Uint64(); av != bv {
			t.Fatalf("draw %d: %d != %d (same seed must yield same stream)", i, av, bv)
		}
	}
}

func TestRNGDifferentSeedsDiffer(t *testing.T) {
	a := NewRNG(1)
	b := NewRNG(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("%d/100 identical draws across different seeds", same)
	}
}

func TestRNGForkIsDeterministic(t *testing.T) {
	mk := func() *RNG { return NewRNG(7).Fork("mobility") }
	a, b := mk(), mk()
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("draw %d differs between identically derived forks", i)
		}
	}
}

func TestRNGForkLabelsIndependent(t *testing.T) {
	root := NewRNG(7)
	a := root.Fork("comm")
	b := root.Fork("ml")
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("%d/100 identical draws across differently labeled forks", same)
	}
}

func TestRNGRepeatedForkSameLabelDiffers(t *testing.T) {
	root := NewRNG(7)
	a := root.Fork("vehicle")
	b := root.Fork("vehicle")
	if a.Uint64() == b.Uint64() {
		t.Fatal("two forks with the same label produced the same first draw")
	}
}

func TestRNGForkDoesNotDisturbSiblingStreams(t *testing.T) {
	// Adding draws on one fork must not change another fork's stream: this
	// is the property that keeps module randomness decoupled.
	root1 := NewRNG(99)
	commA := root1.Fork("comm")
	mlA := root1.Fork("ml")
	_ = commA.Uint64() // consume

	root2 := NewRNG(99)
	_ = root2.Fork("comm") // same fork order, no consumption
	mlB := root2.Fork("ml")

	for i := 0; i < 50; i++ {
		if mlA.Uint64() != mlB.Uint64() {
			t.Fatalf("draw %d: ml stream perturbed by sibling comm stream usage", i)
		}
	}
}

func TestRNGFloat64InUnitInterval(t *testing.T) {
	r := NewRNG(3)
	for i := 0; i < 10000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64() = %v out of [0,1)", v)
		}
	}
}

func TestRNGFloat64Mean(t *testing.T) {
	r := NewRNG(5)
	const n = 100000
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += r.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("mean of %d uniform draws = %v, want ~0.5", n, mean)
	}
}

func TestRNGBool(t *testing.T) {
	r := NewRNG(11)
	if r.Bool(0) {
		t.Fatal("Bool(0) = true")
	}
	if !r.Bool(1) {
		t.Fatal("Bool(1) = false")
	}
	const n = 100000
	hits := 0
	for i := 0; i < n; i++ {
		if r.Bool(0.3) {
			hits++
		}
	}
	frac := float64(hits) / n
	if math.Abs(frac-0.3) > 0.01 {
		t.Fatalf("Bool(0.3) hit rate = %v, want ~0.3", frac)
	}
}

func TestRNGRange(t *testing.T) {
	r := NewRNG(13)
	for i := 0; i < 1000; i++ {
		v := r.Range(-5, 10)
		if v < -5 || v >= 10 {
			t.Fatalf("Range(-5,10) = %v out of bounds", v)
		}
	}
}

func TestRNGIntnCoversRange(t *testing.T) {
	r := NewRNG(17)
	seen := make(map[int]bool)
	for i := 0; i < 1000; i++ {
		v := r.Intn(10)
		if v < 0 || v >= 10 {
			t.Fatalf("Intn(10) = %d out of range", v)
		}
		seen[v] = true
	}
	if len(seen) != 10 {
		t.Fatalf("Intn(10) produced only %d distinct values in 1000 draws", len(seen))
	}
}

func TestRNGNormFloat64Moments(t *testing.T) {
	r := NewRNG(19)
	const n = 100000
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		v := r.NormFloat64()
		sum += v
		sumSq += v * v
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean) > 0.02 {
		t.Fatalf("normal mean = %v, want ~0", mean)
	}
	if math.Abs(variance-1) > 0.03 {
		t.Fatalf("normal variance = %v, want ~1", variance)
	}
}

func TestSplitMix64KnownVector(t *testing.T) {
	// Reference values for SplitMix64 with seed 1234567, from the public
	// reference implementation by Sebastiano Vigna.
	s := &splitMix64{state: 1234567}
	want := []uint64{
		6457827717110365317,
		3203168211198807973,
		9817491932198370423,
		4593380528125082431,
		16408922859458223821,
	}
	for i, w := range want {
		if got := s.next(); got != w {
			t.Fatalf("draw %d = %d, want %d", i, got, w)
		}
	}
}

// TestRNGMarkResumeBitIdentical: a stream resumed from a Mark draws what
// the original draws next, through every draw method the simulator uses,
// including the rejection loops of NormFloat64 and Intn.
func TestRNGMarkResumeBitIdentical(t *testing.T) {
	r := NewRNG(23)
	for i := 0; i < 2000; i++ {
		resumed := NewRNG(r.Mark())
		a := []float64{r.NormFloat64(), float64(r.Intn(7)), r.Float64(), r.Range(-1, 1), float64(r.Int63n(1<<40 + 3))}
		b := []float64{resumed.NormFloat64(), float64(resumed.Intn(7)), resumed.Float64(), resumed.Range(-1, 1), float64(resumed.Int63n(1<<40 + 3))}
		for k := range a {
			if math.Float64bits(a[k]) != math.Float64bits(b[k]) {
				t.Fatalf("step %d draw %d: resumed stream drew %v, original %v", i, k, b[k], a[k])
			}
		}
		if r.Mark() != resumed.Mark() {
			t.Fatalf("step %d: streams at different positions after the same draws", i)
		}
	}
}
