package ml

import (
	"fmt"
	"math"
	"testing"

	"roadrunner/internal/sim"
)

// convCase is one randomized conv shape for the GEMM equivalence tests.
type convCase struct {
	inC, inH, inW, outC, k int
}

func randomConvCase(rng *sim.RNG) convCase {
	k := 1 + rng.Intn(3)
	return convCase{
		inC:  1 + rng.Intn(4),
		inH:  k + rng.Intn(9),
		inW:  k + rng.Intn(9),
		outC: 1 + rng.Intn(6),
		k:    k,
	}
}

func randomFill(rng *sim.RNG, s []float32) {
	for i := range s {
		s[i] = float32(rng.NormFloat64())
	}
}

// maxAbsDiff returns the largest elementwise |a-b|.
func maxAbsDiff(t *testing.T, a, b []float32) float64 {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("length mismatch: %d vs %d", len(a), len(b))
	}
	worst := 0.0
	for i := range a {
		d := math.Abs(float64(a[i]) - float64(b[i]))
		if d > worst {
			worst = d
		}
	}
	return worst
}

// TestConvGEMMForwardMatchesReference proves the im2col+GEMM forward equals
// the retained scalar reference kernel within 1e-5 over randomized shapes.
func TestConvGEMMForwardMatchesReference(t *testing.T) {
	rng := sim.NewRNG(101)
	for trial := 0; trial < 50; trial++ {
		cc := randomConvCase(rng)
		t.Run(fmt.Sprintf("trial%d_%dx%dx%d_oc%d_k%d", trial, cc.inC, cc.inH, cc.inW, cc.outC, cc.k), func(t *testing.T) {
			c := newConv2D(cc.inC, cc.inH, cc.inW, cc.outC, cc.k)
			randomFill(rng, c.w)
			randomFill(rng, c.b)
			x := make([]float32, cc.inC*cc.inH*cc.inW)
			randomFill(rng, x)

			got := c.forward(x, 1)
			want := referenceConvForward(c.w, c.b, x, cc.inC, cc.inH, cc.inW, cc.outC, cc.k)
			if d := maxAbsDiff(t, got, want); d > 1e-5 {
				t.Fatalf("forward diverges from reference by %g", d)
			}
		})
	}
}

// TestConvGEMMBackwardMatchesReference proves the GEMM backward (dx, dw,
// db) equals the scalar reference within 1e-5 over randomized shapes,
// including gradient accumulation across consecutive backward calls.
func TestConvGEMMBackwardMatchesReference(t *testing.T) {
	rng := sim.NewRNG(202)
	for trial := 0; trial < 50; trial++ {
		cc := randomConvCase(rng)
		t.Run(fmt.Sprintf("trial%d_%dx%dx%d_oc%d_k%d", trial, cc.inC, cc.inH, cc.inW, cc.outC, cc.k), func(t *testing.T) {
			c := newConv2D(cc.inC, cc.inH, cc.inW, cc.outC, cc.k)
			randomFill(rng, c.w)
			randomFill(rng, c.b)
			x := make([]float32, cc.inC*cc.inH*cc.inW)
			randomFill(rng, x)
			dout := make([]float32, cc.outC*(cc.inH-cc.k+1)*(cc.inW-cc.k+1))
			randomFill(rng, dout)

			c.forward(x, 1)
			dx := c.backward(0, dout, true)
			wantDx, wantDw, wantDb := referenceConvBackward(c.w, x, dout, cc.inC, cc.inH, cc.inW, cc.outC, cc.k)
			if d := maxAbsDiff(t, dx, wantDx); d > 1e-5 {
				t.Fatalf("dx diverges from reference by %g", d)
			}
			if d := maxAbsDiff(t, c.dw, wantDw); d > 1e-5 {
				t.Fatalf("dw diverges from reference by %g", d)
			}
			if d := maxAbsDiff(t, c.db, wantDb); d > 1e-5 {
				t.Fatalf("db diverges from reference by %g", d)
			}

			// Gradients accumulate across backward calls (mini-batching):
			// a second identical backward must double dw/db exactly like
			// the reference would.
			c.forward(x, 1)
			c.backward(0, dout, true)
			for i := range wantDw {
				wantDw[i] *= 2
			}
			for i := range wantDb {
				wantDb[i] *= 2
			}
			if d := maxAbsDiff(t, c.dw, wantDw); d > 2e-5 {
				t.Fatalf("accumulated dw diverges from reference by %g", d)
			}
			if d := maxAbsDiff(t, c.db, wantDb); d > 2e-5 {
				t.Fatalf("accumulated db diverges from reference by %g", d)
			}
		})
	}
}

// TestConvGEMMDeterministic re-runs one forward/backward on fresh layers
// and requires bitwise-identical outputs: the GEMM loop nests are fixed, so
// no reassociation may vary between runs.
func TestConvGEMMDeterministic(t *testing.T) {
	run := func() ([]float32, []float32, []float32) {
		rng := sim.NewRNG(7)
		c := newConv2D(3, 9, 8, 5, 3)
		randomFill(rng, c.w)
		randomFill(rng, c.b)
		x := make([]float32, 3*9*8)
		randomFill(rng, x)
		dout := make([]float32, 5*7*6)
		randomFill(rng, dout)
		y := append([]float32(nil), c.forward(x, 1)...)
		dx := append([]float32(nil), c.backward(0, dout, true)...)
		dw := append([]float32(nil), c.dw...)
		return y, dx, dw
	}
	y1, dx1, dw1 := run()
	y2, dx2, dw2 := run()
	for name, pair := range map[string][2][]float32{
		"y": {y1, y2}, "dx": {dx1, dx2}, "dw": {dw1, dw2},
	} {
		a, b := pair[0], pair[1]
		for i := range a {
			if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
				t.Fatalf("%s[%d] differs bitwise between identical runs", name, i)
			}
		}
	}
}

// TestGEMMKernelsMatchNaive checks the three kernels against textbook
// triple loops on odd sizes that exercise the 4-wide remainder paths.
func TestGEMMKernelsMatchNaive(t *testing.T) {
	rng := sim.NewRNG(303)
	for trial := 0; trial < 30; trial++ {
		m, n, k := 1+rng.Intn(9), 1+rng.Intn(9), 1+rng.Intn(9)
		a := make([]float32, m*k)
		b := make([]float32, k*n)
		at := make([]float32, k*m)
		bt := make([]float32, n*k)
		randomFill(rng, a)
		randomFill(rng, b)
		for i := 0; i < m; i++ {
			for p := 0; p < k; p++ {
				at[p*m+i] = a[i*k+p]
			}
		}
		for p := 0; p < k; p++ {
			for j := 0; j < n; j++ {
				bt[j*k+p] = b[p*n+j]
			}
		}
		want := make([]float32, m*n)
		for i := 0; i < m; i++ {
			for j := 0; j < n; j++ {
				var s float32
				for p := 0; p < k; p++ {
					s += a[i*k+p] * b[p*n+j]
				}
				want[i*n+j] = s
			}
		}
		for name, got := range map[string][]float32{
			"gemmNN": runGEMM(m, n, k, a, b, gemmNN),
			"gemmTN": runGEMM(m, n, k, at, b, gemmTN),
			"gemmNT": runGEMM(m, n, k, a, bt, packedNT),
		} {
			if d := maxAbsDiff(t, got, want); d > 1e-5 {
				t.Fatalf("%s (m=%d n=%d k=%d) diverges from naive by %g", name, m, n, k, d)
			}
		}
	}
}

// packedNT is gemmNT on a packed B (rows K apart).
func packedNT(m, n, k int, a, b, c []float32) { gemmNT(m, n, k, k, a, b, c) }

func runGEMM(m, n, k int, a, b []float32, kernel func(m, n, k int, a, b, c []float32)) []float32 {
	c := make([]float32, m*n)
	kernel(m, n, k, a, b, c)
	return c
}
