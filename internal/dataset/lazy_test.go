package dataset

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"

	"roadrunner/internal/ml"
	"roadrunner/internal/sim"
)

// partitionDigest hashes every agent's examples in order: label and pixels.
func partitionDigest(parts [][]ml.Example) string {
	h := sha256.New()
	var buf [8]byte
	u64 := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	u64(uint64(len(parts)))
	for _, p := range parts {
		u64(uint64(len(p)))
		for _, ex := range p {
			u64(uint64(ex.Label))
			for _, v := range ex.X {
				u64(uint64(math.Float32bits(v)))
			}
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestPartitionBitIdentical pins Partition to digests recorded while it
// still sorted and dealt the examples themselves, before it ran on pool
// indices: every scheme, on a Balanced pool larger than the agents take and
// not a multiple of the class count, and on the same pool relabelled with
// labels in no cyclic order (one of them outside the generator's classes).
func TestPartitionBitIdentical(t *testing.T) {
	pool := makePool(t, 843)
	relabelled := make([]ml.Example, len(pool))
	lr := sim.NewRNG(78)
	for i, ex := range pool {
		ex.Label = lr.Intn(5)
		relabelled[i] = ex
	}
	cases := []struct {
		name string
		pool []ml.Example
		cfg  PartitionConfig
		want string
	}{
		{"iid", pool, PartitionConfig{Scheme: SchemeIID, PerAgent: 40}, "c611bfccf7f7c3133f0cf6ae73fdec23bf47d8c1a92e3da0abfac43b49df19c1"},
		{"shards", pool, PartitionConfig{Scheme: SchemeShards, PerAgent: 40, ShardsPerAgent: 2}, "9fb2daa38c7e2bfc5a097074f3bde78b9d25f9cd8f7e1764e71fa4517b855b24"},
		{"dirichlet", pool, PartitionConfig{Scheme: SchemeDirichlet, PerAgent: 40, Alpha: 0.5}, "8d6ed16e4cc218dc4f7784e8035fdff9874c8be5d19c9f989b2af2fadc819d86"},
		{"iid/relabelled", relabelled, PartitionConfig{Scheme: SchemeIID, PerAgent: 40}, "6860b8fbc91e3bb1d785e85b670370ff8833097c5279e2cd00d31e90dd87a2f7"},
		{"shards/relabelled", relabelled, PartitionConfig{Scheme: SchemeShards, PerAgent: 40, ShardsPerAgent: 4}, "be0992e2e2d412899d32f1edca23c369090cbb9a8627c24c882a886eaa6e170a"},
		{"dirichlet/relabelled", relabelled, PartitionConfig{Scheme: SchemeDirichlet, PerAgent: 40, Alpha: 0.2}, "b3e99e805a8577c2ab542614cec9d5eb649ab2cd4672e0c09684347ad90ee6ee"},
	}
	for _, c := range cases {
		parts, err := Partition(c.pool, 20, c.cfg, sim.NewRNG(77))
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if got := partitionDigest(parts); got != c.want {
			t.Errorf("%s: partition digest %s, want %s", c.name, got, c.want)
		}
	}
}

// TestSkipMarkBitIdentical: Skip leaves the stream exactly where Sample
// leaves it, sample after sample, with and without shifts. The tiny image
// makes 10^5 samples cheap while still driving the normal sampler's
// rejection path thousands of times.
func TestSkipMarkBitIdentical(t *testing.T) {
	for _, shift := range []int{0, 2} {
		cfg := Config{Classes: 3, H: 4, W: 4, C: 1, NoiseStd: 1, MaxShift: shift, Components: 1}
		g, err := NewGenerator(cfg, sim.NewRNG(1))
		if err != nil {
			t.Fatal(err)
		}
		sampled, skipped := sim.NewRNG(2), sim.NewRNG(2)
		for i := 0; i < 100_000; i++ {
			if _, err := g.Sample(i%cfg.Classes, sampled); err != nil {
				t.Fatal(err)
			}
			if err := g.Skip(i%cfg.Classes, skipped); err != nil {
				t.Fatal(err)
			}
			if sampled.Mark() != skipped.Mark() {
				t.Fatalf("MaxShift %d: after sample %d, Skip left the stream at %#x, Sample at %#x", shift, i, skipped.Mark(), sampled.Mark())
			}
		}
	}
	g, err := NewGenerator(smallConfig(), sim.NewRNG(1))
	if err != nil {
		t.Fatal(err)
	}
	if g.Skip(-1, sim.NewRNG(1)) == nil || g.Skip(0, nil) == nil {
		t.Fatal("Skip accepted a class or rng Sample rejects")
	}
}

// TestPoolExamplesBitIdentical: a walked pool draws, at any index, in any
// order and from several goroutines at once, the example Balanced drew
// there, and leaves the stream where Balanced leaves it, so a test set
// drawn after it is unchanged.
func TestPoolExamplesBitIdentical(t *testing.T) {
	for _, shift := range []int{0, 1} {
		cfg := smallConfig()
		cfg.MaxShift = shift
		g, err := NewGenerator(cfg, sim.NewRNG(5))
		if err != nil {
			t.Fatal(err)
		}
		const n = 301
		eager, walked := sim.NewRNG(6), sim.NewRNG(6)
		want, err := g.Balanced(n, eager)
		if err != nil {
			t.Fatal(err)
		}
		pool, err := g.Walk(n, walked)
		if err != nil {
			t.Fatal(err)
		}
		if eager.Mark() != walked.Mark() {
			t.Fatalf("MaxShift %d: Walk left the stream elsewhere than Balanced", shift)
		}
		labels := pool.Labels()
		if len(labels) != n {
			t.Fatalf("pool of %d, want %d", len(labels), n)
		}
		for i, l := range labels {
			if l != want[i].Label {
				t.Fatalf("label %d = %d, want %d", i, l, want[i].Label)
			}
		}
		order := sim.NewRNG(7).Perm(n)
		const workers = 8
		got := make([][]ml.Example, workers)
		done := make(chan int)
		for w := 0; w < workers; w++ {
			go func() {
				got[w] = pool.Examples(order[w*n/workers : (w+1)*n/workers])
				done <- w
			}()
		}
		for range workers {
			<-done
		}
		for w := 0; w < workers; w++ {
			for k, ex := range got[w] {
				i := order[w*n/workers+k]
				if partitionDigest([][]ml.Example{{ex}}) != partitionDigest([][]ml.Example{{want[i]}}) {
					t.Fatalf("MaxShift %d: pool example %d differs from Balanced's", shift, i)
				}
			}
		}
	}
	g, err := NewGenerator(smallConfig(), sim.NewRNG(1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.Walk(0, sim.NewRNG(1)); err == nil {
		t.Fatal("empty walk accepted")
	}
	if _, err := g.Walk(3, nil); err == nil {
		t.Fatal("nil rng accepted")
	}
}
