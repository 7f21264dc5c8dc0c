package ml

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"testing"

	"roadrunner/internal/sim"
)

// naiveChainNN is the textbook C += A·B with one chain per element:
// c, then + a[i][0]·b[0][j], + a[i][1]·b[1][j], … — the float sequence
// every forward kernel must reproduce bit for bit.
func naiveChainNN(m, n, k int, a, b, c []float32) {
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			s := c[i*n+j]
			for p := 0; p < k; p++ {
				s += a[i*k+p] * b[p*n+j]
			}
			c[i*n+j] = s
		}
	}
}

// referenceDenseForward is the one-example dense loop the batched forward
// replaced, kept as its oracle.
func referenceDenseForward(d *dense, x []float32) []float32 {
	y := make([]float32, d.out)
	for o := range y {
		row := d.w[o*d.in : (o+1)*d.in]
		sum := d.b[o]
		for i, xi := range x {
			sum += row[i] * xi
		}
		y[o] = sum
	}
	return y
}

// infs keeps +Inf where the compiler cannot fold Inf − Inf.
var infs = []float32{float32(math.Inf(1))}

// generatedNaN returns the NaN the hardware makes of an invalid operation.
// It is the only NaN training can create — from Inf − Inf or 0·Inf; inputs
// are finite — and the one the tests plant. When two NaNs of different
// payloads meet in one operation, which payload survives depends on the
// operand order the compiler picked, in the one-example code as in the
// batched kernels; with one payload there is nothing to pick.
func generatedNaN() float32 { return infs[0] - infs[0] }

// saltNonFinite fills s with normals and, at random positions, ±0, ±Inf,
// NaN and values that repeat their neighbour (ties).
func saltNonFinite(rng *sim.RNG, s []float32) {
	randomFill(rng, s)
	for i := range s {
		switch rng.Intn(12) {
		case 0:
			s[i] = 0
		case 1:
			s[i] = float32(math.Copysign(0, -1))
		case 2:
			s[i] = float32(math.Inf(1))
		case 3:
			s[i] = float32(math.Inf(-1))
		case 4:
			s[i] = generatedNaN()
		case 5:
			if i > 0 {
				s[i] = s[i-1]
			}
		}
	}
}

// TestForwardKernelsBitIdentical holds gemmNN (vector kernel plus
// portable remainder), the portable gemmNNBlock alone and gemmNTChain to
// the naive chains bit for bit, on shapes that leave every remainder path
// of the 2×4 tiles and the 2×8 vector kernel something to do, with finite
// and with non-finite operands.
func TestForwardKernelsBitIdentical(t *testing.T) {
	rng := sim.NewRNG(2201)
	for trial := 0; trial < 60; trial++ {
		m, n, k := 1+rng.Intn(13), 1+rng.Intn(70), 1+rng.Intn(30)
		nonFinite := trial%3 == 0
		t.Run(fmt.Sprintf("m%d_n%d_k%d_nonfinite=%v", m, n, k, nonFinite), func(t *testing.T) {
			fill := randomFill
			if nonFinite {
				fill = saltNonFinite
			}
			a := make([]float32, m*k)
			b := make([]float32, k*n)
			c0 := make([]float32, m*n)
			fill(rng, a)
			fill(rng, b)
			fill(rng, c0)

			want := append([]float32(nil), c0...)
			naiveChainNN(m, n, k, a, b, want)
			got := append([]float32(nil), c0...)
			gemmNN(m, n, k, a, b, got)
			requireSameBits(t, "gemmNN", got, want)
			got = append(got[:0], c0...)
			gemmNNBlock(0, m, 0, n, k, a, b, got)
			requireSameBits(t, "gemmNNBlock", got, want)

			// gemmNTChain takes B transposed: N×K.
			bt := make([]float32, n*k)
			for p := 0; p < k; p++ {
				for j := 0; j < n; j++ {
					bt[j*k+p] = b[p*n+j]
				}
			}
			got = append(got[:0], c0...)
			gemmNTChain(m, n, k, a, bt, got)
			// The dense forward writes its products w·x with the weight
			// (B) first; the chain is the same.
			requireSameBits(t, "gemmNTChain", got, want)
		})
	}
}

// forwardCases are conv shapes for the batched-forward tests: the paper
// CNN's two convs and odd ones.
var forwardCases = append([]convCase{
	{inC: 1, inH: 1, inW: 7, outC: 1, k: 1},
	{inC: 2, inH: 6, inW: 5, outC: 3, k: 2},
	{inC: 4, inH: 9, inW: 8, outC: 5, k: 3},
}, paperConvShapes...)

// TestConvForwardBitIdentical requires a batched conv forward to give,
// for every example, the bits of the scalar reference kernel on that
// example alone — finite inputs and inputs salted with ±0, ±Inf and NaN —
// and the backward that follows a batched forward to accumulate the bits
// a one-example forward leaves behind.
func TestConvForwardBitIdentical(t *testing.T) {
	rng := sim.NewRNG(2202)
	for _, cc := range forwardCases {
		for _, nb := range []int{1, 2, 5, 16} {
			for _, nonFinite := range []bool{false, true} {
				name := fmt.Sprintf("%dx%dx%d_oc%d_k%d/nb%d/nonfinite=%v", cc.inC, cc.inH, cc.inW, cc.outC, cc.k, nb, nonFinite)
				t.Run(name, func(t *testing.T) {
					inN := cc.inC * cc.inH * cc.inW
					outN := cc.outC * (cc.inH - cc.k + 1) * (cc.inW - cc.k + 1)
					batched := newConv2D(cc.inC, cc.inH, cc.inW, cc.outC, cc.k)
					randomFill(rng, batched.w)
					randomFill(rng, batched.b)
					x := make([]float32, nb*inN)
					if nonFinite {
						saltNonFinite(rng, x)
					} else {
						randomFill(rng, x)
					}
					y := batched.forward(x, nb)
					if len(y) != nb*outN {
						t.Fatalf("forward returned %d values, want %d", len(y), nb*outN)
					}
					for e := 0; e < nb; e++ {
						want := referenceConvForward(batched.w, batched.b, x[e*inN:(e+1)*inN], cc.inC, cc.inH, cc.inW, cc.outC, cc.k)
						requireSameBits(t, fmt.Sprintf("example %d", e), y[e*outN:(e+1)*outN], want)
					}
					if nonFinite {
						return
					}

					single := newConv2D(cc.inC, cc.inH, cc.inW, cc.outC, cc.k)
					copy(single.w, batched.w)
					copy(single.b, batched.b)
					dout := make([]float32, nb*outN)
					randomFill(rng, dout)
					for e := 0; e < nb; e++ {
						single.forward(x[e*inN:(e+1)*inN], 1)
						wantDx := append([]float32(nil), single.backward(0, dout[e*outN:(e+1)*outN], true)...)
						gotDx := batched.backward(e, dout[e*outN:(e+1)*outN], true)
						requireSameBits(t, fmt.Sprintf("example %d dx", e), gotDx, wantDx)
						requireSameBits(t, fmt.Sprintf("example %d dw", e), batched.dw, single.dw)
						requireSameBits(t, fmt.Sprintf("example %d db", e), batched.db, single.db)
					}
				})
			}
		}
	}
}

// TestDenseForwardBitIdentical holds the batched dense forward to the
// one-example loop it replaced, on finite and non-finite batches.
func TestDenseForwardBitIdentical(t *testing.T) {
	rng := sim.NewRNG(2203)
	for _, shape := range [][2]int{{1, 1}, {48, 32}, {32, 16}, {16, 10}, {7, 5}, {36, 24}} {
		for _, nb := range []int{1, 3, 16} {
			for _, nonFinite := range []bool{false, true} {
				t.Run(fmt.Sprintf("in%d_out%d/nb%d/nonfinite=%v", shape[0], shape[1], nb, nonFinite), func(t *testing.T) {
					d := newDense(shape[0], shape[1])
					fill := randomFill
					if nonFinite {
						fill = saltNonFinite
					}
					fill(rng, d.w)
					fill(rng, d.b)
					x := make([]float32, nb*d.in)
					fill(rng, x)
					y := d.forward(x, nb)
					for e := 0; e < nb; e++ {
						want := referenceDenseForward(d, x[e*d.in:(e+1)*d.in])
						requireSameBits(t, fmt.Sprintf("example %d", e), y[e*d.out:(e+1)*d.out], want)
					}
				})
			}
		}
	}
}

// TestMaxPoolForwardBitIdentical holds the pool's forward to the
// compare-and-branch pass — outputs bit for bit and the same argmax — on
// batches as ReLU leaves them (the branchless pass runs) and on batches
// holding negatives, −0, ±Inf, NaN and ties (it must hand over to the
// compare pass), with even and odd plane sizes.
func TestMaxPoolForwardBitIdentical(t *testing.T) {
	rng := sim.NewRNG(2204)
	shapes := [][3]int{{1, 2, 2}, {6, 14, 14}, {12, 5, 5}, {3, 7, 6}, {2, 9, 4}}
	for _, sh := range shapes {
		for _, nb := range []int{1, 4} {
			for _, input := range []string{"relu", "relu+NaN", "raw", "salted"} {
				t.Run(fmt.Sprintf("%dx%dx%d/nb%d/%s", sh[0], sh[1], sh[2], nb, input), func(t *testing.T) {
					size := sh[0] * sh[1] * sh[2]
					x := make([]float32, nb*size)
					switch input {
					case "relu", "relu+NaN":
						randomFill(rng, x)
						for i := 0; i < len(x); i += 3 {
							x[i] = x[(i+1)%len(x)] // ties
						}
						if input == "relu+NaN" {
							// The first input of an example always falls in a window.
							x[rng.Intn(nb)*size] = float32(math.NaN())
						}
						x = append([]float32(nil), newReLU(size).forward(x, nb)...)
					case "raw":
						randomFill(rng, x)
					case "salted":
						saltNonFinite(rng, x)
					}
					got := newMaxPool2(sh[0], sh[1], sh[2])
					y := append([]float32(nil), got.forward(x, nb)...)
					want := newMaxPool2(sh[0], sh[1], sh[2])
					outN := sh[0] * (sh[1] / 2) * (sh[2] / 2)
					want.y, want.argmax = make([]float32, nb*outN), make([]int, nb*outN)
					want.poolCompare(x, nb)
					requireSameBits(t, "y", y, want.y)
					for o := range want.argmax {
						if got.argmax[o] != want.argmax[o] {
							t.Fatalf("argmax[%d] = %d, want %d", o, got.argmax[o], want.argmax[o])
						}
					}
					// Only ReLU output without NaN stays on the branchless pass;
					// anything else must have been handed over.
					fast := got.poolBits(x, nb)
					if wantFast := input == "relu"; fast != wantFast {
						t.Fatalf("poolBits accepted the batch: %v, want %v", fast, wantFast)
					}
				})
			}
		}
	}
}

// TestBatchedForwardBitIdentical runs Train, Evaluate and Confusion with
// the forward pass carrying one example, seven (chunks that split
// mini-batches and straddle evaluation runs) and the default batch, and
// requires the same weights, losses, accuracy and matrix bit for bit.
func TestBatchedForwardBitIdentical(t *testing.T) {
	diverging := DefaultTrainConfig()
	diverging.LR, diverging.ClipNorm = 1e4, 0
	cases := []struct {
		name string
		spec Spec
		cfg  TrainConfig
	}{
		{"cnn", paperCNN(), DefaultTrainConfig()},
		{"mlp", MLPSpec(36, []int{24, 12}, 6), DefaultTrainConfig()},
		{"cnn-diverging", paperCNN(), diverging},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			examples := trainingExamples(t, tc.spec, 53)
			type outcome struct {
				weights      []float32
				trainLoss    []float64
				acc, evLoss  float64
				confusionSum []int
			}
			run := func(maxBatch int) outcome {
				n, err := NewNetwork(tc.spec, sim.NewRNG(21))
				if err != nil {
					t.Fatal(err)
				}
				n.maxBatch = maxBatch
				var o outcome
				rng := sim.NewRNG(22)
				for round := 0; round < 2; round++ {
					loss, err := n.Train(examples, tc.cfg, rng)
					if err != nil {
						t.Fatal(err)
					}
					o.trainLoss = append(o.trainLoss, loss)
				}
				o.weights = n.Snapshot().Weights
				if o.acc, o.evLoss, err = n.Evaluate(examples); err != nil {
					t.Fatal(err)
				}
				cm, err := n.Confusion(examples)
				if err != nil {
					t.Fatal(err)
				}
				for _, row := range cm {
					o.confusionSum = append(o.confusionSum, row...)
				}
				return o
			}
			want := run(1)
			for _, mb := range []int{7, defaultMaxBatch} {
				got := run(mb)
				requireSameBits(t, fmt.Sprintf("maxBatch %d weights", mb), got.weights, want.weights)
				for r := range want.trainLoss {
					if math.Float64bits(got.trainLoss[r]) != math.Float64bits(want.trainLoss[r]) {
						t.Fatalf("maxBatch %d round %d loss %v, want %v", mb, r, got.trainLoss[r], want.trainLoss[r])
					}
				}
				if math.Float64bits(got.acc) != math.Float64bits(want.acc) || math.Float64bits(got.evLoss) != math.Float64bits(want.evLoss) {
					t.Fatalf("maxBatch %d Evaluate = (%v, %v), want (%v, %v)", mb, got.acc, got.evLoss, want.acc, want.evLoss)
				}
				if fmt.Sprint(got.confusionSum) != fmt.Sprint(want.confusionSum) {
					t.Fatalf("maxBatch %d confusion %v, want %v", mb, got.confusionSum, want.confusionSum)
				}
			}
		})
	}
}

// TestPaperCNNDigestBitIdentical pins the bits of training and evaluating
// the paper CNN (and an MLP) to digests recorded with the one-example
// forward pass, before batching: three Train calls on 80 examples, then
// Evaluate and shardedEvaluate on 100 more, hashed as raw bits.
func TestPaperCNNDigestBitIdentical(t *testing.T) {
	diverging := DefaultTrainConfig()
	diverging.LR, diverging.ClipNorm = 1e4, 0
	for _, tc := range []struct {
		name string
		spec Spec
		cfg  TrainConfig
		want string
	}{
		{"cnn", paperCNN(), DefaultTrainConfig(), "6cd88a639e6bf1b75fe67f52a9b4f210da9a3405fb5a5287db568ef6ee5358e3"},
		{"cnn-diverging", paperCNN(), diverging, "c6f665dd84bcaa4aeb584f46e1dc5e790abed85d3aa22b3e9415902833df9aee"},
		{"mlp", MLPSpec(36, []int{24, 12}, 6), DefaultTrainConfig(), "5cdff6c6060564e2c7ae28c970a22ae9d25237d942663416b7e50d7f6da9f234"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if got := trainEvalDigest(t, tc.spec, tc.cfg); got != tc.want {
				t.Fatalf("digest %s, want %s", got, tc.want)
			}
		})
	}
}

func trainEvalDigest(t *testing.T, spec Spec, cfg TrainConfig) string {
	t.Helper()
	rng := sim.NewRNG(2024)
	n, err := NewNetwork(spec, rng.Fork("init"))
	if err != nil {
		t.Fatal(err)
	}
	classes, err := spec.OutputDim()
	if err != nil {
		t.Fatal(err)
	}
	gen := func(count int) []Example {
		out := make([]Example, count)
		for i := range out {
			x := make([]float32, spec.InputDim())
			for j := range x {
				x[j] = float32(rng.NormFloat64())
			}
			out[i] = Example{X: x, Label: rng.Intn(classes)}
		}
		return out
	}
	train, test := gen(80), gen(100)
	h := sha256.New()
	put := func(v uint64) {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	trainRNG := rng.Fork("train")
	for round := 0; round < 3; round++ {
		loss, err := n.Train(train, cfg, trainRNG)
		if err != nil {
			t.Fatal(err)
		}
		put(math.Float64bits(loss))
	}
	snap := n.Snapshot()
	for _, w := range snap.Weights {
		put(uint64(math.Float32bits(w)))
	}
	acc, loss, err := n.Evaluate(test)
	if err != nil {
		t.Fatal(err)
	}
	put(math.Float64bits(acc))
	put(math.Float64bits(loss))
	acc, loss = shardedEvaluate(t, snap, test)
	put(math.Float64bits(acc))
	put(math.Float64bits(loss))
	return hex.EncodeToString(h.Sum(nil))
}

// shardedEvaluate is the evaluation fold the digests were recorded with:
// a network loaded from the snapshot scores 64-example shards, each in
// example order, and the shard sums are folded in ascending shard order.
// The grouping of the loss additions differs from Evaluate's single pass,
// so the digest also pins the loaded network and the per-shard sums.
func shardedEvaluate(t *testing.T, s *Snapshot, examples []Example) (accuracy, loss float64) {
	t.Helper()
	const shard = 64
	net, err := LoadSnapshot(s)
	if err != nil {
		t.Fatal(err)
	}
	correct := 0
	for lo := 0; lo < len(examples); lo += shard {
		c, l, err := net.score(examples[lo:min(lo+shard, len(examples))])
		if err != nil {
			t.Fatal(err)
		}
		correct += c
		loss += l
	}
	n := float64(len(examples))
	return float64(correct) / n, loss / n
}
