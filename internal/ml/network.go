package ml

import (
	"fmt"
	"math"

	"roadrunner/internal/sim"
)

// Network is a feed-forward neural network instantiated from a Spec.
// Networks are mutable training state and not safe for concurrent use; each
// simulated agent that trains concurrently does so on its own Network.
type Network struct {
	spec   Spec
	layers []layer
	nOut   int

	dlogits []float32

	// pgroups/ggroups are the layers' parameter and gradient views,
	// collected once at build time: Train consults them several times per
	// batch, and rebuilding the slices was a measurable share of the
	// training hot path.
	pgroups [][]float32
	ggroups [][]float32

	// order is the epoch shuffle buffer, reused across Train calls.
	order []int

	// in is the batch input buffer. maxBatch is the most examples one
	// forward pass carries: Train's mini-batches and Evaluate's runs of the
	// example list go through the layers maxBatch at a time. Any value
	// gives the same bits (layer.go); it bounds the layers' batch buffers,
	// and tests set it to 1 for the one-example-at-a-time oracle.
	in       []float32
	maxBatch int
}

// defaultMaxBatch is Network.maxBatch unless a test lowers it: the paper's
// mini-batch size.
const defaultMaxBatch = 16

// NewNetwork builds a network from spec with He-initialized weights drawn
// from rng (biases start at zero).
func NewNetwork(spec Spec, rng *sim.RNG) (*Network, error) {
	n, err := buildNetwork(spec)
	if err != nil {
		return nil, err
	}
	if rng == nil {
		return nil, fmt.Errorf("ml: nil rng")
	}
	n.initWeights(rng)
	return n, nil
}

func buildNetwork(spec Spec) (*Network, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	n := &Network{spec: spec, maxBatch: defaultMaxBatch}
	cur := shapeState{c: spec.InputC, h: spec.InputH, w: spec.InputW}
	for _, ls := range spec.Layers {
		switch ls.Kind {
		case LayerDense:
			n.layers = append(n.layers, newDense(cur.size(), ls.Out))
			cur = shapeState{c: 1, h: 1, w: ls.Out, flat: true}
		case LayerReLU:
			n.layers = append(n.layers, newReLU(cur.size()))
		case LayerConv:
			n.layers = append(n.layers, newConv2D(cur.c, cur.h, cur.w, ls.Out, ls.Kernel))
			cur = shapeState{c: ls.Out, h: cur.h - ls.Kernel + 1, w: cur.w - ls.Kernel + 1}
		case LayerPool:
			n.layers = append(n.layers, newMaxPool2(cur.c, cur.h, cur.w))
			cur = shapeState{c: cur.c, h: cur.h / 2, w: cur.w / 2}
		}
	}
	n.nOut = cur.size()
	n.dlogits = make([]float32, n.nOut)
	for _, l := range n.layers {
		n.pgroups = append(n.pgroups, l.params()...)
		n.ggroups = append(n.ggroups, l.grads()...)
	}
	return n, nil
}

// initWeights applies He initialization: each weight tensor is drawn from
// N(0, 2/fanIn), suited to ReLU networks.
func (n *Network) initWeights(rng *sim.RNG) {
	for _, l := range n.layers {
		switch v := l.(type) {
		case *dense:
			std := math.Sqrt(2 / float64(v.in))
			for i := range v.w {
				v.w[i] = float32(rng.NormFloat64() * std)
			}
		case *conv2d:
			fanIn := v.inC * v.k * v.k
			std := math.Sqrt(2 / float64(fanIn))
			for i := range v.w {
				v.w[i] = float32(rng.NormFloat64() * std)
			}
		}
	}
}

// Spec returns the architecture description.
func (n *Network) Spec() Spec { return n.spec }

// OutputDim returns the logit count.
func (n *Network) OutputDim() int { return n.nOut }

// Forward runs inference and returns the logits. The returned slice is
// owned by the network and valid until the next Forward call.
func (n *Network) Forward(x []float32) ([]float32, error) {
	if len(x) != n.spec.InputDim() {
		return nil, fmt.Errorf("ml: input dim %d, want %d", len(x), n.spec.InputDim())
	}
	return n.forward(x, 1), nil
}

// forward runs nb examples, stored back to back in x, through every layer
// and returns their logits back to back.
func (n *Network) forward(x []float32, nb int) []float32 {
	for _, l := range n.layers {
		x = l.forward(x, nb)
	}
	return x
}

// forwardBatch gathers nb examples' inputs, x(e) being example e's, into
// the batch buffer and runs them through the network in one pass.
func (n *Network) forwardBatch(nb int, x func(e int) []float32) []float32 {
	dim := n.spec.InputDim()
	n.in = fit(n.in, nb*dim)
	for e := 0; e < nb; e++ {
		copy(n.in[e*dim:(e+1)*dim], x(e))
	}
	return n.forward(n.in, nb)
}

// Predict returns the argmax class for x.
func (n *Network) Predict(x []float32) (int, error) {
	logits, err := n.Forward(x)
	if err != nil {
		return 0, err
	}
	return Argmax(logits), nil
}

// paramGroups returns all trainable parameter slices in deterministic
// layer order. The group list is built once at network construction; the
// slices are live views into the layers.
func (n *Network) paramGroups() [][]float32 { return n.pgroups }

func (n *Network) gradGroups() [][]float32 { return n.ggroups }

func (n *Network) zeroGrads() {
	for _, l := range n.layers {
		l.zeroGrads()
	}
}

// TrainConfig bundles the local-training hyperparameters used by learning
// strategies (the paper's experiment: 2 epochs of SGD with momentum).
type TrainConfig struct {
	Epochs    int     `json:"epochs"`
	BatchSize int     `json:"batch_size"`
	LR        float64 `json:"lr"`
	Momentum  float64 `json:"momentum"`
	// ClipNorm caps the global L2 norm of each batch gradient (0 disables
	// clipping). High-skew local retraining at aggressive effective
	// learning rates can otherwise diverge to NaN, which Federated
	// Averaging then spreads to the global model.
	ClipNorm float64 `json:"clip_norm,omitempty"`
}

// DefaultTrainConfig mirrors the paper's setup: two local epochs of
// momentum-SGD with small batches.
func DefaultTrainConfig() TrainConfig {
	return TrainConfig{Epochs: 2, BatchSize: 16, LR: 0.05, Momentum: 0.9, ClipNorm: 4}
}

// Validate reports whether the configuration is usable.
func (c TrainConfig) Validate() error {
	switch {
	case c.Epochs <= 0:
		return fmt.Errorf("ml: non-positive epochs %d", c.Epochs)
	case c.BatchSize <= 0:
		return fmt.Errorf("ml: non-positive batch size %d", c.BatchSize)
	case c.LR <= 0:
		return fmt.Errorf("ml: non-positive learning rate %v", c.LR)
	case c.Momentum < 0 || c.Momentum >= 1:
		return fmt.Errorf("ml: momentum %v outside [0,1)", c.Momentum)
	case c.ClipNorm < 0:
		return fmt.Errorf("ml: negative clip norm %v", c.ClipNorm)
	default:
		return nil
	}
}

// Train runs cfg.Epochs of mini-batch SGD over examples, shuffling each
// epoch with rng, and returns the mean training loss of the final epoch.
func (n *Network) Train(examples []Example, cfg TrainConfig, rng *sim.RNG) (float64, error) {
	if err := cfg.Validate(); err != nil {
		return 0, err
	}
	if len(examples) == 0 {
		return 0, fmt.Errorf("ml: train on empty example set")
	}
	if err := ValidateExamples(examples, n.spec.InputDim(), n.nOut); err != nil {
		return 0, err
	}
	if rng == nil {
		return 0, fmt.Errorf("ml: nil rng")
	}
	opt, err := NewSGD(cfg.LR, cfg.Momentum)
	if err != nil {
		return 0, err
	}

	if cap(n.order) < len(examples) {
		n.order = make([]int, len(examples))
	}
	order := n.order[:len(examples)]
	for i := range order {
		order[i] = i
	}
	lastEpochLoss := 0.0
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		epochLoss := 0.0
		for start := 0; start < len(order); start += cfg.BatchSize {
			end := min(start+cfg.BatchSize, len(order))
			n.zeroGrads()
			batchLoss := 0.0
			// One forward pass per mini-batch (weights change only at the
			// step below), then each example's backward in order.
			for lo := start; lo < end; lo += n.maxBatch {
				chunk := order[lo:min(lo+n.maxBatch, end)]
				logits := n.forwardBatch(len(chunk), func(e int) []float32 { return examples[chunk[e]].X })
				for e, idx := range chunk {
					loss, err := SoftmaxCrossEntropy(logits[e*n.nOut:(e+1)*n.nOut], examples[idx].Label, n.dlogits)
					if err != nil {
						return 0, err
					}
					batchLoss += loss
					n.backward(e, n.dlogits)
				}
			}
			// Average gradients over the batch.
			scale := float32(1 / float64(end-start))
			for _, g := range n.gradGroups() {
				for i := range g {
					g[i] *= scale
				}
			}
			if cfg.ClipNorm > 0 {
				clipGradients(n.gradGroups(), cfg.ClipNorm)
			}
			if err := opt.Step(n.paramGroups(), n.gradGroups()); err != nil {
				return 0, err
			}
			epochLoss += batchLoss
		}
		lastEpochLoss = epochLoss / float64(len(order))
	}
	return lastEpochLoss, nil
}

// backward backpropagates example e's dlogits through every layer,
// accumulating parameter gradients. Nothing reads the gradient w.r.t. the
// network input, so the first layer is asked not to compute it.
func (n *Network) backward(e int, dlogits []float32) {
	cur := dlogits
	for i := len(n.layers) - 1; i >= 0; i-- {
		cur = n.layers[i].backward(e, cur, i > 0)
	}
}

// Evaluate returns the classification accuracy and mean cross-entropy loss
// over examples. It does not mutate the network.
func (n *Network) Evaluate(examples []Example) (accuracy, loss float64, err error) {
	if len(examples) == 0 {
		return 0, 0, fmt.Errorf("ml: evaluate on empty example set")
	}
	if err := ValidateExamples(examples, n.spec.InputDim(), n.nOut); err != nil {
		return 0, 0, err
	}
	correct, totalLoss, err := n.score(examples)
	if err != nil {
		return 0, 0, err
	}
	return float64(correct) / float64(len(examples)), totalLoss / float64(len(examples)), nil
}

// score runs validated examples through the network maxBatch at a time and
// returns how many it classifies correctly and their cross-entropy losses
// summed in example order.
func (n *Network) score(examples []Example) (correct int, loss float64, err error) {
	scratch := n.dlogits // softmax scratch; no training state lives here
	for lo := 0; lo < len(examples); lo += n.maxBatch {
		chunk := examples[lo:min(lo+n.maxBatch, len(examples))]
		logits := n.forwardBatch(len(chunk), func(e int) []float32 { return chunk[e].X })
		for e, ex := range chunk {
			out := logits[e*n.nOut : (e+1)*n.nOut]
			if Argmax(out) == ex.Label {
				correct++
			}
			l, err := SoftmaxCrossEntropy(out, ex.Label, scratch)
			if err != nil {
				return 0, 0, err
			}
			loss += l
		}
	}
	return correct, loss, nil
}

// clipGradients rescales all gradient groups so their joint L2 norm does
// not exceed maxNorm.
func clipGradients(groups [][]float32, maxNorm float64) {
	var sumSq float64
	for _, g := range groups {
		for _, v := range g {
			sumSq += float64(v) * float64(v)
		}
	}
	norm := math.Sqrt(sumSq)
	if norm <= maxNorm || norm == 0 {
		return
	}
	scale := float32(maxNorm / norm)
	for _, g := range groups {
		for i := range g {
			g[i] *= scale
		}
	}
}
