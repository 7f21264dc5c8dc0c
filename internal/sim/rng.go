package sim

import (
	"hash/fnv"
	"math/rand"
)

// RNG is a deterministic random-number stream. Every stochastic decision in
// an experiment — vehicle routes, reporter selection, channel failures, data
// partitioning, weight initialization — draws from an RNG forked (directly
// or transitively) from the single experiment seed, so a configuration and a
// seed fully determine an experiment run. This determinism is what makes the
// framework usable for quick strategy iteration (paper requirement 6): a
// strategy change can be evaluated against an otherwise identical run.
//
// RNG embeds the stdlib rand.Rand over a SplitMix64 source, inheriting the
// full convenience API (Float64, Intn, Perm, Shuffle, ...). Its own
// NormFloat64 (normal.go) returns exactly what rand.Rand's would, faster.
// RNG is not safe for concurrent use; fork per goroutine instead.
type RNG struct {
	*rand.Rand
	src *splitMix64
}

// NewRNG returns a stream seeded with seed.
func NewRNG(seed uint64) *RNG {
	src := &splitMix64{state: seed}
	return &RNG{Rand: rand.New(src), src: src}
}

// Fork derives an independent child stream from r, namespaced by label.
// Forking with distinct labels yields statistically independent streams;
// forking with the same label twice yields distinct streams as well, because
// each fork also consumes randomness from the parent. Fork keeps module
// streams decoupled: e.g. adding a draw in the mobility generator must not
// perturb the communication module's failure sampling.
func (r *RNG) Fork(label string) *RNG {
	h := fnv.New64a()
	_, _ = h.Write([]byte(label))
	return NewRNG(h.Sum64() ^ r.src.next())
}

// Mark returns r's position in its stream: NewRNG(r.Mark()) draws exactly
// what r draws next. rand.Rand keeps no state of its own outside Read, which
// nothing in the simulator calls, so the SplitMix64 state is the position.
func (r *RNG) Mark() uint64 { return r.src.state }

// Bool returns true with probability p (clamped to [0, 1]).
func (r *RNG) Bool(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return r.Float64() < p
}

// Range returns a uniform float64 in [lo, hi).
func (r *RNG) Range(lo, hi float64) float64 {
	return lo + float64((hi-lo)*r.Float64()) // rounded: no fused multiply-add
}

// splitMix64 is the SplitMix64 generator (Steele, Lea & Flood 2014): tiny
// state, full 64-bit output, passes BigCrush. It implements rand.Source64.
type splitMix64 struct {
	state uint64
}

var _ rand.Source64 = (*splitMix64)(nil)

// gamma is SplitMix64's increment: a draw advances the state by gamma and
// returns mix of the new state, so a stream position is a counter.
const gamma = 0x9e3779b97f4a7c15

func (s *splitMix64) next() uint64 {
	s.state += gamma
	return mix(s.state)
}

// mix is SplitMix64's output function.
func mix(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (s *splitMix64) Uint64() uint64 { return s.next() }

func (s *splitMix64) Int63() int64 { return int64(s.next() >> 1) }

func (s *splitMix64) Seed(seed int64) { s.state = uint64(seed) }
