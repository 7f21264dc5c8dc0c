package dataset

import (
	"fmt"
	"math"
	"sort"

	"roadrunner/internal/ml"
	"roadrunner/internal/sim"
)

// Scheme selects how a data pool is distributed over agents — the paper's
// "split the dataset into n subsets according to a predefined distribution"
// (§4). The evaluation (§5.2) uses a highly skewed per-vehicle class
// distribution; the ablation benches sweep across all three schemes.
type Scheme int

const (
	// SchemeIID assigns every agent a uniformly random subset, so local
	// class distributions match the global one.
	SchemeIID Scheme = iota + 1
	// SchemeShards sorts the pool by label, cuts it into contiguous
	// shards, and deals ShardsPerAgent shards to each agent (McMahan et
	// al.'s pathological non-IID split). One or two shards per agent
	// yields the paper's "highly skewed distribution of classes ...
	// to emulate the real-world scenario of highly personalized data".
	SchemeShards
	// SchemeDirichlet draws each agent's class proportions from a
	// symmetric Dirichlet(alpha); small alpha means high skew.
	SchemeDirichlet
)

// String returns the lower-case scheme name.
func (s Scheme) String() string {
	switch s {
	case SchemeIID:
		return "iid"
	case SchemeShards:
		return "shards"
	case SchemeDirichlet:
		return "dirichlet"
	default:
		return fmt.Sprintf("unknown(%d)", int(s))
	}
}

// PartitionConfig parameterizes a split.
type PartitionConfig struct {
	Scheme Scheme `json:"scheme"`
	// PerAgent is the number of samples each agent receives (the paper's
	// experiment: 80).
	PerAgent int `json:"per_agent"`
	// ShardsPerAgent applies to SchemeShards (the paper-style skew uses 2).
	ShardsPerAgent int `json:"shards_per_agent,omitempty"`
	// Alpha applies to SchemeDirichlet.
	Alpha float64 `json:"alpha,omitempty"`
}

// DefaultPartitionConfig mirrors the paper's evaluation: 80 samples per
// vehicle, highly skewed (two label shards each).
func DefaultPartitionConfig() PartitionConfig {
	return PartitionConfig{Scheme: SchemeShards, PerAgent: 80, ShardsPerAgent: 2}
}

// Validate reports whether the configuration is usable.
func (c PartitionConfig) Validate() error {
	if c.PerAgent <= 0 {
		return fmt.Errorf("dataset: non-positive per-agent sample count %d", c.PerAgent)
	}
	switch c.Scheme {
	case SchemeIID:
		return nil
	case SchemeShards:
		if c.ShardsPerAgent <= 0 {
			return fmt.Errorf("dataset: shards scheme needs positive shards per agent, got %d", c.ShardsPerAgent)
		}
		if c.PerAgent%c.ShardsPerAgent != 0 {
			return fmt.Errorf("dataset: per-agent count %d not divisible by %d shards", c.PerAgent, c.ShardsPerAgent)
		}
		return nil
	case SchemeDirichlet:
		if c.Alpha <= 0 {
			return fmt.Errorf("dataset: dirichlet scheme needs positive alpha, got %v", c.Alpha)
		}
		return nil
	default:
		return fmt.Errorf("dataset: unknown scheme %d", int(c.Scheme))
	}
}

// Partition splits pool into agents subsets of cfg.PerAgent samples each.
// The pool must hold at least agents*cfg.PerAgent examples. Examples are
// not duplicated across agents. It is PartitionIndices on the pool's
// labels: a split depends on nothing else about an example.
func Partition(pool []ml.Example, agents int, cfg PartitionConfig, rng *sim.RNG) ([][]ml.Example, error) {
	labels := make([]int, len(pool))
	for i, ex := range pool {
		labels[i] = ex.Label
	}
	idx, err := PartitionIndices(labels, agents, cfg, rng)
	if err != nil {
		return nil, err
	}
	out := make([][]ml.Example, agents)
	for a, ix := range idx {
		out[a] = make([]ml.Example, len(ix))
		for k, i := range ix {
			out[a][k] = pool[i]
		}
	}
	return out, nil
}

// PartitionIndices splits a pool given by its labels (labels[i] is the
// label of example i) into agents lists of cfg.PerAgent pool indices each,
// in the order Partition hands the examples out.
func PartitionIndices(labels []int, agents int, cfg PartitionConfig, rng *sim.RNG) ([][]int, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if agents <= 0 {
		return nil, fmt.Errorf("dataset: non-positive agent count %d", agents)
	}
	if rng == nil {
		return nil, fmt.Errorf("dataset: nil rng")
	}
	need := agents * cfg.PerAgent
	if len(labels) < need {
		return nil, fmt.Errorf("dataset: pool of %d samples cannot supply %d agents x %d", len(labels), agents, cfg.PerAgent)
	}
	switch cfg.Scheme {
	case SchemeIID:
		return partitionIID(len(labels), agents, cfg.PerAgent, rng), nil
	case SchemeShards:
		return partitionShards(labels, agents, cfg.PerAgent, cfg.ShardsPerAgent, rng), nil
	case SchemeDirichlet:
		return partitionDirichlet(labels, agents, cfg.PerAgent, cfg.Alpha, rng)
	default:
		return nil, fmt.Errorf("dataset: unknown scheme %d", int(cfg.Scheme))
	}
}

// byLabel groups pool indices by label: the labels in ascending order and,
// per label, its indices in pool order. Concatenating the groups is a
// stable sort of the pool by label.
func byLabel(labels []int) (classes []int, groups [][]int) {
	slot := map[int]int{}
	for _, l := range labels {
		if _, ok := slot[l]; !ok {
			slot[l] = 0
			classes = append(classes, l)
		}
	}
	sort.Ints(classes)
	for k, c := range classes {
		slot[c] = k
	}
	groups = make([][]int, len(classes))
	for i, l := range labels {
		k := slot[l]
		groups[k] = append(groups[k], i)
	}
	return classes, groups
}

func partitionIID(n, agents, perAgent int, rng *sim.RNG) [][]int {
	perm := rng.Perm(n)
	out := make([][]int, agents)
	for a := range out {
		out[a] = perm[a*perAgent : (a+1)*perAgent : (a+1)*perAgent]
	}
	return out
}

func partitionShards(labels []int, agents, perAgent, shardsPerAgent int, rng *sim.RNG) [][]int {
	// Stable sort by label, then slice into equal shards and deal a random
	// shardsPerAgent of them to each agent.
	_, groups := byLabel(labels)
	sorted := make([]int, 0, len(labels))
	for _, g := range groups {
		sorted = append(sorted, g...)
	}

	shardSize := perAgent / shardsPerAgent
	numShards := agents * shardsPerAgent
	shardOrder := rng.Perm(numShards)
	out := make([][]int, agents)
	k := 0
	for a := 0; a < agents; a++ {
		subset := make([]int, 0, perAgent)
		for s := 0; s < shardsPerAgent; s++ {
			shard := shardOrder[k]
			k++
			start := shard * shardSize
			subset = append(subset, sorted[start:start+shardSize]...)
		}
		out[a] = subset
	}
	return out
}

func partitionDirichlet(labels []int, agents, perAgent int, alpha float64, rng *sim.RNG) ([][]int, error) {
	// Group pool indices by label, shuffled within each class.
	classes, byClass := byLabel(labels)
	for _, idx := range byClass {
		rng.Shuffle(len(idx), func(i, j int) { idx[i], idx[j] = idx[j], idx[i] })
	}
	cursor := make([]int, len(classes))

	out := make([][]int, agents)
	for a := 0; a < agents; a++ {
		props := dirichlet(rng, len(classes), alpha)
		subset := make([]int, 0, perAgent)
		// Draw target counts per class, then fill, falling back to any
		// class with remaining samples when one runs dry.
		for c, idx := range byClass {
			want := int(float64(props[c]*float64(perAgent)) + 0.5)
			for n := 0; n < want && len(subset) < perAgent && cursor[c] < len(idx); n++ {
				subset = append(subset, idx[cursor[c]])
				cursor[c]++
			}
		}
		for len(subset) < perAgent {
			grew := false
			for c, idx := range byClass {
				if cursor[c] < len(idx) {
					subset = append(subset, idx[cursor[c]])
					cursor[c]++
					grew = true
					if len(subset) == perAgent {
						break
					}
				}
			}
			if !grew {
				return nil, fmt.Errorf("dataset: dirichlet partition exhausted the pool at agent %d", a)
			}
		}
		out[a] = subset
	}
	return out, nil
}

// dirichlet draws a symmetric Dirichlet(alpha) vector of length k via
// normalized Gamma(alpha, 1) draws (Marsaglia-Tsang is overkill here; for
// the alphas used in experiments a sum of exponential-based draws via the
// Johnk/Best approach suffices — implemented as Gamma through rejection).
func dirichlet(rng *sim.RNG, k int, alpha float64) []float64 {
	out := make([]float64, k)
	var sum float64
	for i := range out {
		g := gammaDraw(rng, alpha)
		out[i] = g
		sum += g
	}
	if sum <= 0 {
		// Degenerate: fall back to uniform.
		for i := range out {
			out[i] = 1 / float64(k)
		}
		return out
	}
	for i := range out {
		out[i] /= sum
	}
	return out
}

// gammaDraw samples Gamma(shape, 1) using Marsaglia-Tsang for shape >= 1
// and the boost transform for shape < 1.
func gammaDraw(rng *sim.RNG, shape float64) float64 {
	if shape < 1 {
		u := rng.Float64()
		for u == 0 {
			u = rng.Float64()
		}
		return gammaDraw(rng, shape+1) * math.Pow(u, 1/shape)
	}
	d := shape - 1.0/3.0
	c := 1 / math.Sqrt(9*d)
	for {
		x := rng.NormFloat64()
		v := 1 + float64(c*x)
		if v <= 0 {
			continue
		}
		v = float64(v * v * v)
		u := rng.Float64()
		if u < 1-float64(0.0331*x*x*x*x) {
			return d * v
		}
		if u > 0 && math.Log(u) < float64(0.5*x*x)+float64(d*(1-v+math.Log(v))) {
			return d * v
		}
	}
}
