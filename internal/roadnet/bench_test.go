package roadnet

import (
	"testing"

	"roadrunner/internal/sim"
)

// BenchmarkShortestPath measures route planning on the default city grid
// (used once per generated trip) through one PathFinder, as
// mobility.Generate plans a fleet's trips.
func BenchmarkShortestPath(b *testing.B) {
	g, err := Generate(DefaultGridConfig(), sim.NewRNG(1))
	if err != nil {
		b.Fatal(err)
	}
	pf := NewPathFinder(g)
	rng := sim.NewRNG(2)
	n := g.NumNodes()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		from := NodeID(rng.Intn(n))
		to := NodeID(rng.Intn(n))
		if from == to {
			continue
		}
		if _, err := pf.ShortestPath(from, to); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGenerateGrid measures road-network construction.
func BenchmarkGenerateGrid(b *testing.B) {
	cfg := DefaultGridConfig()
	for i := 0; i < b.N; i++ {
		if _, err := Generate(cfg, sim.NewRNG(uint64(i))); err != nil {
			b.Fatal(err)
		}
	}
}
