package ml

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// evalShardSize is the fixed shard length of EvaluateParallel's work
// decomposition. The shard grid depends only on the example count — never
// on the worker count — so the per-shard partial results, and therefore
// the folded totals, are identical no matter how many workers ran.
const evalShardSize = 64

// evalShard is one shard's partial result: the correct-prediction count
// and the example-order loss sum over the shard's half-open range.
type evalShard struct {
	correct int
	loss    float64
	err     error
}

// EvaluateParallel computes the classification accuracy and mean
// cross-entropy loss of the snapshot over examples using up to workers
// goroutines, each inferring on its own Network instance.
//
// Determinism: examples are split into fixed evalShardSize shards, each
// shard is evaluated in example order, and the per-shard partial sums are
// folded in ascending shard order. Workers only race for *which* shard
// they pull, never for how a shard is computed or folded, so the returned
// accuracy and loss are bit-identical for any worker count, including 1.
// The accuracy additionally equals serial Network.Evaluate exactly (it is
// a ratio of integers); the loss may differ from serial evaluation in the
// last bits because the shard fold groups the float additions.
func EvaluateParallel(s *Snapshot, examples []Example, workers int) (accuracy, loss float64, err error) {
	if s == nil {
		return 0, 0, fmt.Errorf("ml: nil snapshot")
	}
	if len(examples) == 0 {
		return 0, 0, fmt.Errorf("ml: evaluate on empty example set")
	}
	out, err := s.Spec.OutputDim()
	if err != nil {
		return 0, 0, err
	}
	if err := ValidateExamples(examples, s.Spec.InputDim(), out); err != nil {
		return 0, 0, err
	}

	nShards := (len(examples) + evalShardSize - 1) / evalShardSize
	if workers < 1 {
		workers = 1
	}
	if workers > nShards {
		workers = nShards
	}
	partials := make([]evalShard, nShards)

	if workers == 1 {
		net, err := LoadSnapshot(s)
		if err != nil {
			return 0, 0, err
		}
		for i := range partials {
			partials[i] = evaluateShard(net, examples, i)
		}
	} else {
		var next int64
		var wg sync.WaitGroup
		errs := make([]error, workers)
		for w := 0; w < workers; w++ {
			net, err := LoadSnapshot(s)
			if err != nil {
				return 0, 0, err
			}
			wg.Add(1)
			go func(w int, net *Network) {
				defer wg.Done()
				for {
					i := int(atomic.AddInt64(&next, 1)) - 1
					if i >= nShards {
						return
					}
					partials[i] = evaluateShard(net, examples, i)
					if partials[i].err != nil {
						errs[w] = partials[i].err
						return
					}
				}
			}(w, net)
		}
		wg.Wait()
		for _, e := range errs {
			if e != nil {
				return 0, 0, e
			}
		}
	}

	correct := 0
	totalLoss := 0.0
	for _, p := range partials {
		if p.err != nil {
			return 0, 0, p.err
		}
		correct += p.correct
		totalLoss += p.loss
	}
	n := float64(len(examples))
	return float64(correct) / n, totalLoss / n, nil
}

// evaluateShard evaluates shard i of the fixed decomposition on net,
// accumulating in example order.
func evaluateShard(net *Network, examples []Example, i int) evalShard {
	lo := i * evalShardSize
	hi := lo + evalShardSize
	if hi > len(examples) {
		hi = len(examples)
	}
	correct, loss, err := net.score(examples[lo:hi])
	return evalShard{correct: correct, loss: loss, err: err}
}
