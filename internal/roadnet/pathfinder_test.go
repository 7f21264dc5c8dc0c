package roadnet

import (
	"errors"
	"math"
	"reflect"
	"testing"

	"roadrunner/internal/sim"
)

// TestPathFinderMatchesGraphShortestPath drives one reused PathFinder
// through many random queries on the default grid and requires every route
// to equal the fresh-state Graph.ShortestPath result exactly — nodes,
// edges, and bitwise-identical length/time. This is the guard that the
// epoch-stamped scratch and typed heap change performance only.
func TestPathFinderMatchesGraphShortestPath(t *testing.T) {
	g, err := Generate(DefaultGridConfig(), sim.NewRNG(11))
	if err != nil {
		t.Fatalf("generate grid: %v", err)
	}
	pf := NewPathFinder(g)
	rng := sim.NewRNG(12)
	for q := 0; q < 300; q++ {
		from := NodeID(rng.Intn(g.NumNodes()))
		to := NodeID(rng.Intn(g.NumNodes()))
		got, gotErr := pf.ShortestPath(from, to)
		want, wantErr := g.ShortestPath(from, to)
		if (gotErr == nil) != (wantErr == nil) {
			t.Fatalf("query %d (%d->%d): error mismatch: %v vs %v", q, from, to, gotErr, wantErr)
		}
		if gotErr != nil {
			continue
		}
		if !reflect.DeepEqual(got.Nodes, want.Nodes) || !reflect.DeepEqual(got.Edges, want.Edges) {
			t.Fatalf("query %d (%d->%d): route differs between reused and fresh finder", q, from, to)
		}
		if math.Float64bits(got.Length) != math.Float64bits(want.Length) ||
			math.Float64bits(got.Time) != math.Float64bits(want.Time) {
			t.Fatalf("query %d (%d->%d): length/time not bitwise equal: (%v,%v) vs (%v,%v)",
				q, from, to, got.Length, got.Time, want.Length, want.Time)
		}
	}
}

// TestPathFinderUnreachableAndInvalid checks the reused finder keeps the
// wrapper's error behaviour across consecutive failing and succeeding
// queries.
func TestPathFinderUnreachableAndInvalid(t *testing.T) {
	var g Graph
	a := g.AddNode(Point{X: 0, Y: 0})
	b := g.AddNode(Point{X: 100, Y: 0})
	c := g.AddNode(Point{X: 200, Y: 0})
	if err := g.AddEdge(a, b, 10); err != nil {
		t.Fatalf("add edge: %v", err)
	}
	pf := NewPathFinder(&g)

	if _, err := pf.ShortestPath(a, c); !errors.Is(err, ErrNoPath) {
		t.Fatalf("want ErrNoPath for unreachable node, got %v", err)
	}
	if _, err := pf.ShortestPath(a, NodeID(99)); err == nil {
		t.Fatalf("want error for unknown node")
	}
	route, err := pf.ShortestPath(a, b)
	if err != nil {
		t.Fatalf("reachable query after failures: %v", err)
	}
	if len(route.Edges) != 1 || route.Nodes[0] != a || route.Nodes[1] != b {
		t.Fatalf("unexpected route %+v", route)
	}
	if self, err := pf.ShortestPath(b, b); err != nil || len(self.Nodes) != 1 {
		t.Fatalf("self route: %+v, %v", self, err)
	}
}

// oracle is the early-exit Dijkstra the PathFinder's trees replaced, kept
// as their oracle: cleared state per query, stop when to is popped,
// container/heap's sift order.
type oracle struct {
	g        *Graph
	dist     []float64
	prev     []int32
	prevEdge []int32
	seen     []bool
	settled  []bool
	heap     PathFinder // borrowed for its heap
}

func newOracle(g *Graph) *oracle {
	n := g.NumNodes()
	return &oracle{g: g, dist: make([]float64, n), prev: make([]int32, n), prevEdge: make([]int32, n),
		seen: make([]bool, n), settled: make([]bool, n)}
}

func (o *oracle) shortestPath(from, to NodeID) (Route, error) {
	if from == to {
		return Route{Nodes: []NodeID{from}}, nil
	}
	g, dist, prev, prevEdge, seen, settled := o.g, o.dist, o.prev, o.prevEdge, o.seen, o.settled
	clear(seen)
	clear(settled)
	dist[from], prev[from], prevEdge[from], seen[from] = 0, -1, -1, true
	p := &o.heap
	p.pq = p.pq[:0]
	p.push(nodeDist{node: from})
	found := false
	for len(p.pq) > 0 {
		u := p.pop().node
		if settled[u] {
			continue
		}
		settled[u] = true
		if u == to {
			found = true
			break
		}
		for ei, e := range g.adj[u] {
			v := e.To
			if settled[v] {
				continue
			}
			alt := dist[u] + e.TravelTime()
			if !seen[v] || alt < dist[v] {
				dist[v], prev[v], prevEdge[v], seen[v] = alt, int32(u), int32(ei), true
				p.push(nodeDist{node: v, dist: alt})
			}
		}
	}
	if !found {
		return Route{}, ErrNoPath
	}
	var nodes []NodeID
	var edges []Edge
	length := 0.0
	for v := to; ; {
		nodes = append(nodes, v)
		pn := prev[v]
		if pn < 0 {
			break
		}
		e := g.adj[pn][prevEdge[v]]
		edges = append(edges, e)
		length += e.Length
		v = NodeID(pn)
	}
	reverseNodes(nodes)
	reverseEdges(edges)
	return Route{Nodes: nodes, Edges: edges, Length: length, Time: dist[to]}, nil
}

// TestPathFinderTreesMatchEarlyExitOracle asks every (from, to) pair of
// three generated grids of a finder that keeps every tree, and every
// seventh pair of one whose budget keeps none (each query searches and
// stops at to), and requires the early-exit oracle's route: nodes, edges,
// and bit-equal length and time. -short asks the first grid only.
func TestPathFinderTreesMatchEarlyExitOracle(t *testing.T) {
	seeds := []uint64{11, 23, 37}
	if testing.Short() {
		seeds = seeds[:1]
	}
	for _, seed := range seeds {
		g, err := Generate(DefaultGridConfig(), sim.NewRNG(seed))
		if err != nil {
			t.Fatalf("generate grid: %v", err)
		}
		kept, searched := NewPathFinder(g), NewPathFinder(g)
		searched.budget = 0
		o := newOracle(g)
		n := NodeID(g.NumNodes())
		for from := NodeID(0); from < n; from++ {
			for to := NodeID(0); to < n; to++ {
				want, wantErr := o.shortestPath(from, to)
				finders := []*PathFinder{kept}
				if (int(from)*int(n)+int(to))%7 == 0 {
					finders = append(finders, searched)
				}
				for _, pf := range finders {
					got, err := pf.ShortestPath(from, to)
					if (err == nil) != (wantErr == nil) {
						t.Fatalf("seed %d %d->%d: error %v, oracle %v", seed, from, to, err, wantErr)
					}
					if !reflect.DeepEqual(got.Nodes, want.Nodes) || !reflect.DeepEqual(got.Edges, want.Edges) ||
						math.Float64bits(got.Length) != math.Float64bits(want.Length) ||
						math.Float64bits(got.Time) != math.Float64bits(want.Time) {
						t.Fatalf("seed %d %d->%d (budget %d): route differs from the oracle", seed, from, to, pf.budget)
					}
				}
			}
		}
		if searched.kept != 0 || kept.kept != int64(n)*int64(n)*4 {
			t.Fatalf("seed %d: kept %d and %d tree bytes, want %d and 0", seed, kept.kept, searched.kept, int64(n)*int64(n)*4)
		}
	}
}
