package ml

import (
	"math"
	"testing"

	"roadrunner/internal/sim"
)

// numericalGradCheck verifies, for every trainable parameter of the network
// (sampled if there are many), that the analytic gradient matches the
// central finite difference of the loss. This pins down the entire manual
// backpropagation implementation.
func numericalGradCheck(t *testing.T, spec Spec, seed uint64) {
	t.Helper()
	rng := sim.NewRNG(seed)
	n, err := NewNetwork(spec, rng)
	if err != nil {
		t.Fatalf("NewNetwork: %v", err)
	}
	x := make([]float32, spec.InputDim())
	for i := range x {
		x[i] = float32(rng.NormFloat64())
	}
	label := rng.Intn(n.OutputDim())

	lossAt := func() float64 {
		logits, err := n.Forward(x)
		if err != nil {
			t.Fatalf("Forward: %v", err)
		}
		scratch := make([]float32, len(logits))
		loss, err := SoftmaxCrossEntropy(logits, label, scratch)
		if err != nil {
			t.Fatalf("SoftmaxCrossEntropy: %v", err)
		}
		return loss
	}

	// Analytic gradients.
	n.zeroGrads()
	logits, err := n.Forward(x)
	if err != nil {
		t.Fatalf("Forward: %v", err)
	}
	dlogits := make([]float32, len(logits))
	if _, err := SoftmaxCrossEntropy(logits, label, dlogits); err != nil {
		t.Fatalf("SoftmaxCrossEntropy: %v", err)
	}
	n.backward(0, dlogits)

	params := n.paramGroups()
	grads := n.gradGroups()
	const eps = 1e-3
	checked := 0
	for gi := range params {
		p, g := params[gi], grads[gi]
		stride := 1
		if len(p) > 60 {
			stride = len(p) / 60
		}
		for j := 0; j < len(p); j += stride {
			orig := p[j]
			p[j] = orig + eps
			up := lossAt()
			p[j] = orig - eps
			down := lossAt()
			p[j] = orig
			numeric := (up - down) / (2 * eps)
			analytic := float64(g[j])
			diff := math.Abs(numeric - analytic)
			scale := math.Max(1, math.Max(math.Abs(numeric), math.Abs(analytic)))
			if diff/scale > 2e-2 {
				t.Fatalf("group %d param %d: analytic %.6f vs numeric %.6f (rel diff %.4f)",
					gi, j, analytic, numeric, diff/scale)
			}
			checked++
		}
	}
	if checked == 0 {
		t.Fatal("gradient check exercised no parameters")
	}
}

func TestGradCheckDenseOnly(t *testing.T) {
	numericalGradCheck(t, MLPSpec(6, nil, 4), 1)
}

func TestGradCheckMLP(t *testing.T) {
	numericalGradCheck(t, MLPSpec(10, []int{8, 6}, 3), 2)
}

func TestGradCheckConvNet(t *testing.T) {
	// Small conv net: 8x8x2 input, conv(3,k3)/relu/pool, dense.
	spec := Spec{
		InputH: 8, InputW: 8, InputC: 2,
		Layers: []LayerSpec{
			{Kind: LayerConv, Out: 3, Kernel: 3},
			{Kind: LayerReLU},
			{Kind: LayerPool},
			{Kind: LayerDense, Out: 5},
		},
	}
	numericalGradCheck(t, spec, 3)
}

func TestGradCheckPaperCNN(t *testing.T) {
	if testing.Short() {
		t.Skip("full CNN gradient check is slow")
	}
	numericalGradCheck(t, CNNSpec(12, 12, 3, 4, 6, 3, 24, 16, 10), 4)
}

func TestGradCheckInputGradient(t *testing.T) {
	// Verify the gradient w.r.t. the *input* too (needed for correct
	// backprop through stacked layers).
	rng := sim.NewRNG(5)
	spec := MLPSpec(5, []int{7}, 3)
	n, err := NewNetwork(spec, rng)
	if err != nil {
		t.Fatal(err)
	}
	x := make([]float32, 5)
	for i := range x {
		x[i] = float32(rng.NormFloat64())
	}
	label := 1
	loss := func() float64 {
		logits, err := n.Forward(x)
		if err != nil {
			t.Fatal(err)
		}
		scratch := make([]float32, len(logits))
		l, err := SoftmaxCrossEntropy(logits, label, scratch)
		if err != nil {
			t.Fatal(err)
		}
		return l
	}
	n.zeroGrads()
	logits, err := n.Forward(x)
	if err != nil {
		t.Fatal(err)
	}
	dlogits := make([]float32, len(logits))
	if _, err := SoftmaxCrossEntropy(logits, label, dlogits); err != nil {
		t.Fatal(err)
	}
	cur := dlogits
	for i := len(n.layers) - 1; i >= 0; i-- {
		cur = n.layers[i].backward(0, cur, true)
	}
	dx := cur
	const eps = 1e-3
	for i := range x {
		orig := x[i]
		x[i] = orig + eps
		up := loss()
		x[i] = orig - eps
		down := loss()
		x[i] = orig
		numeric := (up - down) / (2 * eps)
		if math.Abs(numeric-float64(dx[i])) > 2e-2*math.Max(1, math.Abs(numeric)) {
			t.Fatalf("input %d: analytic %.6f vs numeric %.6f", i, dx[i], numeric)
		}
	}
}

func TestMaxPoolForwardBackward(t *testing.T) {
	p := newMaxPool2(1, 4, 4)
	x := []float32{
		1, 2, 3, 4,
		5, 6, 7, 8,
		9, 10, 11, 12,
		13, 14, 15, 16,
	}
	y := p.forward(x, 1)
	want := []float32{6, 8, 14, 16}
	for i := range want {
		if y[i] != want[i] {
			t.Fatalf("pool output[%d] = %v, want %v", i, y[i], want[i])
		}
	}
	dx := p.backward(0, []float32{1, 2, 3, 4}, true)
	// Gradient must land exactly on the argmax positions.
	wantDx := make([]float32, 16)
	wantDx[5], wantDx[7], wantDx[13], wantDx[15] = 1, 2, 3, 4
	for i := range wantDx {
		if dx[i] != wantDx[i] {
			t.Fatalf("pool dx[%d] = %v, want %v", i, dx[i], wantDx[i])
		}
	}
}

func TestMaxPoolOddDimensionsDropTail(t *testing.T) {
	p := newMaxPool2(1, 5, 5)
	if p.outH != 2 || p.outW != 2 {
		t.Fatalf("5x5 pool output = %dx%d, want 2x2 (floor)", p.outH, p.outW)
	}
}

func TestReLUForward(t *testing.T) {
	r := newReLU(4)
	y := r.forward([]float32{-1, 0, 2, -3}, 1)
	want := []float32{0, 0, 2, 0}
	for i := range want {
		if y[i] != want[i] {
			t.Fatalf("relu[%d] = %v, want %v", i, y[i], want[i])
		}
	}
	dx := r.backward(0, []float32{10, 20, 30, 40}, true)
	wantDx := []float32{0, 0, 30, 0}
	for i := range wantDx {
		if dx[i] != wantDx[i] {
			t.Fatalf("relu dx[%d] = %v, want %v", i, dx[i], wantDx[i])
		}
	}
}

func TestDenseForwardKnownValues(t *testing.T) {
	d := newDense(2, 2)
	copy(d.w, []float32{1, 2, 3, 4}) // W = [[1,2],[3,4]]
	copy(d.b, []float32{10, 20})
	y := d.forward([]float32{1, 1}, 1)
	if y[0] != 13 || y[1] != 27 {
		t.Fatalf("dense forward = %v, want [13 27]", y)
	}
}

func TestConvForwardKnownValues(t *testing.T) {
	// 1 channel 3x3 input, 1 output channel, 2x2 kernel of ones, bias 1:
	// each output = sum of the 2x2 window + 1.
	c := newConv2D(1, 3, 3, 1, 2)
	for i := range c.w {
		c.w[i] = 1
	}
	c.b[0] = 1
	x := []float32{
		1, 2, 3,
		4, 5, 6,
		7, 8, 9,
	}
	y := c.forward(x, 1)
	want := []float32{1 + 2 + 4 + 5 + 1, 2 + 3 + 5 + 6 + 1, 4 + 5 + 7 + 8 + 1, 5 + 6 + 8 + 9 + 1}
	for i := range want {
		if y[i] != want[i] {
			t.Fatalf("conv output[%d] = %v, want %v", i, y[i], want[i])
		}
	}
}
