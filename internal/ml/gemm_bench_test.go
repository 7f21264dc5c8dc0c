package ml

import (
	"fmt"
	"testing"

	"roadrunner/internal/sim"
)

// gemmShape mirrors the matrix shapes the paper CNN's two conv layers
// feed each kernel (forward, dW, dcol).
type gemmShape struct{ m, n, k int }

var convGEMMShapes = map[string][]gemmShape{
	"NN": {{6, 196, 27}, {12, 25, 54}}, // forward: outC × outN × ck
	"NT": {{6, 27, 196}, {12, 54, 25}}, // dW: outC × ck × outN
	"TN": {{27, 196, 6}, {54, 25, 12}}, // dcol: ck × outN × outC
}

func BenchmarkGEMMConvShapes(b *testing.B) {
	kernels := map[string]func(m, n, k int, a, b, c []float32){
		"NN": gemmNN, "NT": packedNT, "TN": gemmTN,
	}
	rng := sim.NewRNG(1)
	for _, name := range []string{"NN", "NT", "TN"} {
		kernel := kernels[name]
		for _, s := range convGEMMShapes[name] {
			var aLen int
			if name == "TN" {
				aLen = s.k * s.m
			} else {
				aLen = s.m * s.k
			}
			var bLen int
			if name == "NT" {
				bLen = s.n * s.k
			} else {
				bLen = s.k * s.n
			}
			a := make([]float32, aLen)
			bb := make([]float32, bLen)
			c := make([]float32, s.m*s.n)
			randomFill(rng, a)
			randomFill(rng, bb)
			b.Run(fmt.Sprintf("%s_m%d_n%d_k%d", name, s.m, s.n, s.k), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					kernel(s.m, s.n, s.k, a, bb, c)
				}
			})
		}
	}
}

// BenchmarkConvBackward times one conv backward at the paper CNN's two
// conv shapes, under the pool-routed upstream gradient training feeds it:
// "layer" is conv2d.backward as the network calls it (conv1 without an
// input gradient, conv2 with one), "dense" the dense-kernel oracle, which
// always computes dx.
func BenchmarkConvBackward(b *testing.B) {
	rng := sim.NewRNG(1)
	for li, cc := range paperConvShapes {
		c := newConv2D(cc.inC, cc.inH, cc.inW, cc.outC, cc.k)
		randomFill(rng, c.w)
		randomFill(rng, c.b)
		x := make([]float32, cc.inC*cc.inH*cc.inW)
		randomFill(rng, x)
		dout := poolRoutedGrad(rng, c.forward(x, 1), cc.outC, cc.inH-cc.k+1, cc.inW-cc.k+1)
		needDx := li > 0
		name := fmt.Sprintf("conv%d_%dx%dx%d_oc%d", li+1, cc.inC, cc.inH, cc.inW, cc.outC)
		b.Run(name+"/layer", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				c.backward(0, dout, needDx)
			}
		})
		b.Run(name+"/dense", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				denseConvBackward(c, 0, dout)
			}
		})
	}
}
