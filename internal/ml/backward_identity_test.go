package ml

import (
	"fmt"
	"math"
	"testing"

	"roadrunner/internal/sim"
)

// denseConvBackward runs the conv backward on the dense kernels only —
// gemmNT, gemmTN, col2im — always computing dx: the oracle the
// bit-identity tests hold conv2d.backward to.
func denseConvBackward(c *conv2d, e int, dout []float32) []float32 {
	outN := c.outH * c.outW
	ck := c.inC * c.k * c.k
	for oc := 0; oc < c.outC; oc++ {
		var db float32
		for _, g := range dout[oc*outN : (oc+1)*outN] {
			db += g
		}
		c.db[oc] += db
	}
	gemmNT(c.outC, ck, outN, c.ld, dout, c.col[e*outN:], c.dw)
	zero(c.dcol)
	gemmTN(ck, outN, c.outC, c.w, dout, c.dcol)
	zero(c.dx)
	col2im(c.dcol, c.inC, c.inH, c.inW, c.k, c.outH, c.outW, c.dx)
	return c.dx
}

// denseConv runs a conv layer's backward through the oracle.
type denseConv struct{ *conv2d }

func (d denseConv) backward(e int, dout []float32, _ bool) []float32 {
	return denseConvBackward(d.conv2d, e, dout)
}

// withDx computes the input gradient whether or not the caller reads it.
type withDx struct{ layer }

func (w withDx) backward(e int, dout []float32, _ bool) []float32 {
	return w.layer.backward(e, dout, true)
}

// requireSameBits fails unless got and want agree bit for bit.
func requireSameBits(t *testing.T, what string, got, want []float32) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d, want %d", what, len(got), len(want))
	}
	for i := range got {
		if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
			t.Fatalf("%s[%d] = %v (%#08x), want %v (%#08x)", what, i,
				got[i], math.Float32bits(got[i]), want[i], math.Float32bits(want[i]))
		}
	}
}

// poolRoutedGrad returns an upstream gradient for a conv with the given
// output shape as the paper CNN produces it: a random gradient on the 2×2
// max-pool output, routed back through the pool and a ReLU whose inputs
// are y. Floor pooling leaves odd trailing rows and columns at zero.
func poolRoutedGrad(rng *sim.RNG, y []float32, c, h, w int) []float32 {
	r := newReLU(len(y))
	p := newMaxPool2(c, h, w)
	p.forward(r.forward(y, 1), 1)
	dpool := make([]float32, len(p.y))
	randomFill(rng, dpool)
	return append([]float32(nil), r.backward(0, p.backward(0, dpool, true), true)...)
}

// paperConvShapes are the two conv layers of the paper CNN (paperCNN).
var paperConvShapes = []convCase{
	{inC: 3, inH: 16, inW: 16, outC: 6, k: 3},
	{inC: 6, inH: 7, inW: 7, outC: 12, k: 3},
}

// TestConvBackwardBitIdentical holds the sparse conv backward to the dense
// kernels bit for bit — dw, db and dx, over two accumulating calls, and dw
// and db again when the input gradient is not asked for — on the paper
// CNN's conv shapes and odd ones, with upstream gradients that are dense,
// salted with +0 and −0, pool-routed, or entirely zero.
func TestConvBackwardBitIdentical(t *testing.T) {
	rng := sim.NewRNG(1801)
	shapes := append([]convCase{
		{inC: 1, inH: 1, inW: 7, outC: 1, k: 1},
		{inC: 2, inH: 6, inW: 5, outC: 3, k: 2},
		{inC: 4, inH: 9, inW: 8, outC: 5, k: 3},
		{inC: 3, inH: 4, inW: 4, outC: 7, k: 4},
	}, paperConvShapes...)
	for i := 0; i < 6; i++ {
		shapes = append(shapes, randomConvCase(rng))
	}
	modes := []string{"dense", "signed-zeros", "pool-routed", "all-zero"}
	for _, cc := range shapes {
		for _, mode := range modes {
			name := fmt.Sprintf("%dx%dx%d_oc%d_k%d/%s", cc.inC, cc.inH, cc.inW, cc.outC, cc.k, mode)
			t.Run(name, func(t *testing.T) {
				outH, outW := cc.inH-cc.k+1, cc.inW-cc.k+1
				got := newConv2D(cc.inC, cc.inH, cc.inW, cc.outC, cc.k)
				randomFill(rng, got.w)
				randomFill(rng, got.b)
				x := make([]float32, cc.inC*cc.inH*cc.inW)
				randomFill(rng, x)
				y := got.forward(x, 1)

				dout := make([]float32, len(y))
				switch mode {
				case "dense":
					randomFill(rng, dout)
				case "signed-zeros":
					randomFill(rng, dout)
					for i := range dout {
						switch rng.Intn(3) {
						case 0:
							dout[i] = 0
						case 1:
							dout[i] = float32(math.Copysign(0, -1))
						}
					}
				case "pool-routed":
					dout = poolRoutedGrad(rng, y, cc.outC, outH, outW)
				case "all-zero":
					for i := range dout {
						if i%2 == 1 {
							dout[i] = float32(math.Copysign(0, -1))
						}
					}
				}

				want := newConv2D(cc.inC, cc.inH, cc.inW, cc.outC, cc.k)
				copy(want.w, got.w)
				copy(want.b, got.b)
				want.forward(x, 1)
				noDx := newConv2D(cc.inC, cc.inH, cc.inW, cc.outC, cc.k)
				copy(noDx.w, got.w)
				copy(noDx.b, got.b)
				noDx.forward(x, 1)
				for call := 1; call <= 2; call++ {
					gotDx := got.backward(0, dout, true)
					wantDx := denseConvBackward(want, 0, dout)
					requireSameBits(t, fmt.Sprintf("call %d dx", call), gotDx, wantDx)
					requireSameBits(t, fmt.Sprintf("call %d dw", call), got.dw, want.dw)
					requireSameBits(t, fmt.Sprintf("call %d db", call), got.db, want.db)

					if dx := noDx.backward(0, dout, false); dx != nil {
						t.Fatalf("call %d: backward(0, dout, false) returned an input gradient", call)
					}
					requireSameBits(t, fmt.Sprintf("call %d dw without dx", call), noDx.dw, want.dw)
					requireSameBits(t, fmt.Sprintf("call %d db without dx", call), noDx.db, want.db)
				}
			})
		}
	}
}

// TestConvBackwardNonFiniteBitIdentical plants Inf or NaN in the layer's
// input or weights under a pool-routed gradient: the layer must take the
// dense fallback, so the NaN of 0·Inf reaches dw or dx exactly as the
// dense kernels produce it. It also checks that the sparse kernels alone
// would have lost that NaN — the guard is what keeps the bits.
func TestConvBackwardNonFiniteBitIdentical(t *testing.T) {
	inf := float32(math.Inf(1))
	nan := float32(math.NaN())
	cases := []struct {
		name  string
		plant func(x, w []float32)
		inDw  bool // the planted value meets zero gradients in dw (x) or dx (w)
	}{
		{"x+Inf", func(x, w []float32) { x[len(x)/2] = inf }, true},
		{"x-Inf", func(x, w []float32) { x[1] = -inf }, true},
		{"xNaN", func(x, w []float32) { x[len(x)-2] = nan }, true},
		{"w+Inf", func(x, w []float32) { w[3] = inf }, false},
		{"wNaN", func(x, w []float32) { w[len(w)-1] = nan }, false},
	}
	rng := sim.NewRNG(1802)
	for _, tc := range cases {
		for _, cc := range paperConvShapes {
			t.Run(fmt.Sprintf("%s/%dx%dx%d_oc%d", tc.name, cc.inC, cc.inH, cc.inW, cc.outC), func(t *testing.T) {
				outH, outW := cc.inH-cc.k+1, cc.inW-cc.k+1
				outN, ck := outH*outW, cc.inC*cc.k*cc.k
				got := newConv2D(cc.inC, cc.inH, cc.inW, cc.outC, cc.k)
				randomFill(rng, got.w)
				x := make([]float32, cc.inC*cc.inH*cc.inW)
				randomFill(rng, x)
				dout := poolRoutedGrad(rng, got.forward(x, 1), cc.outC, outH, outW)
				tc.plant(x, got.w)
				got.forward(x, 1)

				want := newConv2D(cc.inC, cc.inH, cc.inW, cc.outC, cc.k)
				copy(want.w, got.w)
				want.forward(x, 1)
				gotDx := got.backward(0, dout, true)
				wantDx := denseConvBackward(want, 0, dout)
				requireSameBits(t, "dx", gotDx, wantDx)
				requireSameBits(t, "dw", got.dw, want.dw)
				requireSameBits(t, "db", got.db, want.db)

				// Without the guard the sparse kernels drop 0·Inf.
				var dy sparseRows
				dy.compress(cc.outC, outN, dout)
				var unguarded, oracle []float32
				if tc.inDw {
					unguarded = make([]float32, len(want.dw))
					gemmNTSparse(ck, outN, outN, &dy, want.col, unguarded)
					oracle = make([]float32, len(want.dw))
					gemmNT(cc.outC, ck, outN, outN, dout, want.col, oracle)
				} else {
					unguarded = make([]float32, len(want.dcol))
					gemmTNSparse(ck, outN, want.w, &dy, unguarded)
					oracle = make([]float32, len(want.dcol))
					gemmTN(ck, outN, cc.outC, want.w, dout, oracle)
				}
				if nanCount(unguarded) >= nanCount(oracle) {
					t.Fatalf("dense kernels give %d NaN, sparse %d: the planted value tests nothing",
						nanCount(oracle), nanCount(unguarded))
				}
			})
		}
	}
}

func nanCount(s []float32) int {
	n := 0
	for _, v := range s {
		if v != v {
			n++
		}
	}
	return n
}

// TestTrainBitIdenticalWithoutInputGrad trains the same network three ways
// — as shipped; with the first layer computing its input gradient; and
// that plus every conv on the dense oracle — and requires bit-equal
// weights. The diverging case
// (no clipping, huge learning rate) drives weights to Inf/NaN, so the
// convs' non-finite fallback runs inside training too.
func TestTrainBitIdenticalWithoutInputGrad(t *testing.T) {
	diverging := DefaultTrainConfig()
	diverging.LR, diverging.ClipNorm = 1e4, 0
	cases := []struct {
		name      string
		spec      Spec
		cfg       TrainConfig
		nonFinite bool
	}{
		{"cnn", paperCNN(), DefaultTrainConfig(), false},
		{"mlp", MLPSpec(36, []int{24, 12}, 6), DefaultTrainConfig(), false},
		{"cnn-diverging", paperCNN(), diverging, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			examples := trainingExamples(t, tc.spec, 48)
			train := func(variant string) []float32 {
				n, err := NewNetwork(tc.spec, sim.NewRNG(11))
				if err != nil {
					t.Fatal(err)
				}
				if variant == "dense" {
					for i, l := range n.layers {
						if c, ok := l.(*conv2d); ok {
							n.layers[i] = denseConv{c}
						}
					}
				}
				if variant != "shipped" {
					n.layers[0] = withDx{n.layers[0]}
				}
				rng := sim.NewRNG(12)
				for round := 0; round < 3; round++ {
					if _, err := n.Train(examples, tc.cfg, rng); err != nil {
						t.Fatal(err)
					}
				}
				return n.Snapshot().Weights
			}
			shipped := train("shipped")
			requireSameBits(t, "weights vs layer 0 with dx", shipped, train("with-dx"))
			requireSameBits(t, "weights vs dense backward", shipped, train("dense"))
			if got := !allFinite(shipped); got != tc.nonFinite {
				t.Fatalf("weights non-finite = %v, want %v", got, tc.nonFinite)
			}
		})
	}
}

func trainingExamples(t *testing.T, spec Spec, n int) []Example {
	t.Helper()
	classes, err := spec.OutputDim()
	if err != nil {
		t.Fatal(err)
	}
	rng := sim.NewRNG(13)
	examples := make([]Example, n)
	for i := range examples {
		x := make([]float32, spec.InputDim())
		randomFill(rng, x)
		examples[i] = Example{X: x, Label: i % classes}
	}
	return examples
}
