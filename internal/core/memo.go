package core

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"sync"

	"roadrunner/internal/ml"
	"roadrunner/internal/sim"
)

// worldMemoBytes caps the estimated size of one world's memo. Past it the
// memo keeps answering from what it holds and stores nothing more, so a
// long campaign on one world cannot grow it without bound. At the default
// environment a train result is ~12 KB, so the cap holds ~650 of them;
// the four Figure-4 runs of a seed store ~50 at 2 rounds.
const worldMemoBytes = 8 << 20

// worldMemo holds the training tasks and test evaluations that runs on one
// world have computed. Each entry is a pure function of the world and of
// its key — ml.Network.Train and Evaluate read nothing but the weights, the
// examples, the train config and the task stream — so a run that finds its
// task here gets the bits it would have computed. Concurrent runs that miss
// on the same key both compute; the first to finish stores.
type worldMemo struct {
	mu    sync.Mutex
	train map[trainKey]trainResult
	acc   map[modelDigest]float64
	bytes int64
}

// modelDigest is the sha256 of a snapshot's spec and weight bits.
type modelDigest [32]byte

// trainKey names one training task: the input model, the vehicle whose
// local data it trains on (its index in the world's parts), the
// hyperparameters and the position of the task's shuffle stream.
type trainKey struct {
	model modelDigest
	part  int
	cfg   ml.TrainConfig
	mark  uint64
}

type trainResult struct {
	model *ml.Snapshot
	loss  float64
}

// Estimated bytes of an entry beyond its weights: the key, the map slot and
// the snapshot header.
const trainEntryBytes, accEntryBytes = 192, 64

func newWorldMemo() *worldMemo {
	return &worldMemo{train: make(map[trainKey]trainResult), acc: make(map[modelDigest]float64)}
}

// trained returns a private copy of the model and the loss stored under k.
// A nil memo (a world no other run can attach to) always misses and counts
// nothing.
func (m *worldMemo) trained(k trainKey) (*ml.Snapshot, float64, bool) {
	if m == nil {
		return nil, 0, false
	}
	m.mu.Lock()
	r, ok := m.train[k]
	m.mu.Unlock()
	if !ok {
		worldCounters.trainMisses.Add(1)
		return nil, 0, false
	}
	worldCounters.trainHits.Add(1)
	return r.model.Clone(), r.loss, true
}

// storeTrained stores a copy of model under k while the memo is under its
// cap.
func (m *worldMemo) storeTrained(k trainKey, model *ml.Snapshot, loss float64) {
	if m == nil {
		return
	}
	size := int64(4*len(model.Weights)) + trainEntryBytes
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.train[k]; ok || m.bytes+size > worldMemoBytes {
		return
	}
	m.train[k] = trainResult{model: model.Clone(), loss: loss}
	m.bytes += size
}

// accuracy returns the test accuracy stored for the model with digest d.
func (m *worldMemo) accuracy(d modelDigest) (float64, bool) {
	if m == nil {
		return 0, false
	}
	m.mu.Lock()
	acc, ok := m.acc[d]
	m.mu.Unlock()
	if !ok {
		worldCounters.evalMisses.Add(1)
		return 0, false
	}
	worldCounters.evalHits.Add(1)
	return acc, true
}

// storeAccuracy stores acc for digest d while the memo is under its cap.
func (m *worldMemo) storeAccuracy(d modelDigest, acc float64) {
	if m == nil {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.acc[d]; ok || m.bytes+accEntryBytes > worldMemoBytes {
		return
	}
	m.acc[d] = acc
	m.bytes += accEntryBytes
}

// digest hashes m's spec and weight bits, reusing the experiment's buffer
// (event callbacks run one at a time).
func (e *Experiment) digest(m *ml.Snapshot) modelDigest {
	b := e.digestBuf[:0]
	u64 := func(v int) { b = binary.LittleEndian.AppendUint64(b, uint64(v)) }
	u64(m.Spec.InputH)
	u64(m.Spec.InputW)
	u64(m.Spec.InputC)
	u64(len(m.Spec.Layers))
	for _, l := range m.Spec.Layers {
		u64(int(l.Kind))
		u64(l.Out)
		u64(l.Kernel)
	}
	u64(len(m.Weights))
	for _, w := range m.Weights {
		b = binary.LittleEndian.AppendUint32(b, math.Float32bits(w))
	}
	e.digestBuf = b
	return sha256.Sum256(b)
}

// partOf returns the index of vehicle id when examples are its local data
// — the world's own slice, not a copy — and -1 otherwise or when the world
// has no memo.
func (e *Experiment) partOf(id sim.AgentID, examples []ml.Example) int {
	ref, ok := e.agentIdx[id]
	if !ok || !ref.vehicle || e.world.memo == nil {
		return -1
	}
	local := e.world.part(ref.idx)
	if len(local) != len(examples) || len(local) == 0 || &local[0] != &examples[0] {
		return -1
	}
	return ref.idx
}

// trainTask trains m on examples with the task stream rng and returns the
// trained model and its loss — from the world's memo when a run on the
// world has already computed them. part is partOf's answer; -1 bypasses
// the memo. The memo key reads rng's position before Train draws from it.
func (e *Experiment) trainTask(m *ml.Snapshot, part int, examples []ml.Example, rng *sim.RNG) (*ml.Snapshot, float64, error) {
	memo := e.world.memo
	if part < 0 {
		memo = nil
	}
	var k trainKey
	if memo != nil {
		k = trainKey{model: e.digest(m), part: part, cfg: e.cfg.Train, mark: rng.Mark()}
		if model, loss, ok := memo.trained(k); ok {
			return model, loss, nil
		}
	}
	net, err := e.loadModel(m)
	if err != nil {
		return nil, 0, fmt.Errorf("load snapshot: %w", err)
	}
	loss, err := net.Train(examples, e.cfg.Train, rng)
	if err != nil {
		return nil, 0, err
	}
	model := net.Snapshot()
	memo.storeTrained(k, model, loss)
	return model, loss, nil
}

// evaluate returns m's accuracy on the world's test set, from the world's
// memo when a run on the world has already evaluated the same weights.
func (e *Experiment) evaluate(m *ml.Snapshot) (float64, error) {
	memo := e.world.memo
	var d modelDigest
	if memo != nil {
		d = e.digest(m)
		if acc, ok := memo.accuracy(d); ok {
			return acc, nil
		}
	}
	net, err := e.loadModel(m)
	if err != nil {
		return 0, err
	}
	acc, _, err := net.Evaluate(e.testSet)
	if err != nil {
		return 0, err
	}
	memo.storeAccuracy(d, acc)
	return acc, nil
}
