package roadnet

import (
	"errors"
	"fmt"
)

// ErrNoPath is returned when the destination is unreachable from the origin.
var ErrNoPath = errors.New("roadnet: no path")

// Route is a shortest path through the network: the node sequence, the edge
// sequence connecting them, the total length in meters, and the free-flow
// travel time in seconds.
type Route struct {
	Nodes  []NodeID
	Edges  []Edge
	Length float64 // meters
	Time   float64 // seconds at free-flow speed
}

// ShortestPath computes the fastest route (by free-flow travel time) from
// origin to destination using Dijkstra's algorithm. A route from a node to
// itself is valid and has zero length.
//
// Each call allocates fresh search state, so concurrent calls on a
// constructed graph are safe. Loops that issue many queries against the
// same graph should use a PathFinder, which keeps the tree of every source
// it has searched from.
func (g *Graph) ShortestPath(from, to NodeID) (Route, error) {
	return NewPathFinder(g).ShortestPath(from, to)
}

// Reachable reports whether to is reachable from from.
func (g *Graph) Reachable(from, to NodeID) bool {
	_, err := g.ShortestPath(from, to)
	return err == nil
}

// PathFinder answers shortest-path queries against a fixed graph from one
// shortest-path tree per source. The first query from a source runs
// Dijkstra from it to exhaustion and keeps the tree; later queries from it
// only walk the tree back from the destination. Running on after the
// destination is settled changes nothing recorded for it or for the nodes
// on its route — a settled node is never relaxed again — so a tree answers
// every query with the route an early-exit search from the same source
// returns. The priority queue is a typed binary heap that keeps the exact
// sibling comparison order of container/heap, so ties break as they
// always have.
//
// Trees are kept up to pathTreeBytes per finder; a query from a source
// past that bound searches again each time and stops at its destination.
//
// A PathFinder is not safe for concurrent use; concurrent searchers each
// need their own.
type PathFinder struct {
	g     *Graph
	edges []Edge  // every edge, grouped by origin in adjacency order
	first []int32 // edges[first[u]:first[u+1]] are adj[u]

	// trees[s][v] is the index in edges of the edge the tree from s
	// reaches v by, -1 for s and for unreached nodes; trees[s] is nil
	// until kept.
	trees  [][]int32
	kept   int64   // bytes of the trees kept
	budget int64   // bound on kept; pathTreeBytes
	spare  []int32 // the tree of a source past the budget, one query long

	time    []float64 // search scratch: time from the source
	settled []bool
	pq      []nodeDist
}

// pathTreeBytes bounds the trees one PathFinder keeps. A tree costs 4
// bytes per node, 4·n² for all sources: 0.64 MB on the default 400-node
// grid, and every source of a graph up to ~2 000 nodes fits.
const pathTreeBytes = 16 << 20

// NewPathFinder returns a PathFinder over g. The graph topology must not
// be mutated while the PathFinder is in use.
func NewPathFinder(g *Graph) *PathFinder {
	n := len(g.nodes)
	p := &PathFinder{
		g:       g,
		edges:   make([]Edge, 0, g.edges),
		first:   make([]int32, n+1),
		trees:   make([][]int32, n),
		budget:  pathTreeBytes,
		time:    make([]float64, n),
		settled: make([]bool, n),
	}
	for u, adj := range g.adj {
		p.first[u] = int32(len(p.edges))
		p.edges = append(p.edges, adj...)
	}
	p.first[n] = int32(len(p.edges))
	return p
}

// ShortestPath computes the fastest route from origin to destination; see
// Graph.ShortestPath for the route semantics.
func (p *PathFinder) ShortestPath(from, to NodeID) (Route, error) {
	g := p.g
	if !g.valid(from) || !g.valid(to) {
		return Route{}, fmt.Errorf("roadnet: shortest path: unknown node (%d -> %d)", from, to)
	}
	if from == to {
		return Route{Nodes: []NodeID{from}}, nil
	}
	via := p.tree(from, to)
	if via[to] < 0 {
		return Route{}, fmt.Errorf("%w: %d -> %d", ErrNoPath, from, to)
	}

	// Reconstruct in reverse. Routes outlive the tree, so they get fresh
	// slices.
	var nodes []NodeID
	var edges []Edge
	length := 0.0
	for v := to; ; {
		nodes = append(nodes, v)
		ei := via[v]
		if ei < 0 {
			break
		}
		e := p.edges[ei]
		edges = append(edges, e)
		length += e.Length
		v = e.From
	}
	reverseNodes(nodes)
	reverseEdges(edges)
	// The search reached each node at its predecessor's time plus the
	// edge's, so summing from the source repeats its additions exactly.
	time := 0.0
	for _, e := range edges {
		time += e.TravelTime()
	}
	return Route{Nodes: nodes, Edges: edges, Length: length, Time: time}, nil
}

// tree returns the kept tree from source, building it on first use. Past
// the budget it searches into the spare tree instead and stops once to is
// settled, which records the same route to to.
func (p *PathFinder) tree(from, to NodeID) []int32 {
	if via := p.trees[from]; via != nil {
		return via
	}
	n := len(p.g.nodes)
	if p.kept+int64(n)*4 > p.budget {
		if p.spare == nil {
			p.spare = make([]int32, n)
		}
		p.search(p.spare, from, to)
		return p.spare
	}
	via := make([]int32, n)
	p.trees[from] = via
	p.kept += int64(n) * 4
	p.search(via, from, -1)
	return via
}

// search runs Dijkstra from source into via, stopping once stop is
// settled (never, for stop -1).
func (p *PathFinder) search(via []int32, from, stop NodeID) {
	for i := range via {
		via[i] = -1
	}
	clear(p.settled)
	p.time[from] = 0
	p.pq = p.pq[:0]
	p.push(nodeDist{node: from, dist: 0})
	for len(p.pq) > 0 {
		cur := p.pop()
		u := cur.node
		if p.settled[u] {
			continue
		}
		p.settled[u] = true
		if u == stop {
			return
		}
		du := p.time[u]
		for ei := p.first[u]; ei < p.first[u+1]; ei++ {
			v := p.edges[ei].To
			if p.settled[v] {
				continue
			}
			// v is unsettled, so it is not the source: via[v] < 0 means
			// no edge has reached it yet.
			alt := du + p.edges[ei].TravelTime()
			if via[v] < 0 || alt < p.time[v] {
				p.time[v] = alt
				via[v] = ei
				p.push(nodeDist{node: v, dist: alt})
			}
		}
	}
}

func reverseNodes(s []NodeID) {
	for i, j := 0, len(s)-1; i < j; i, j = i+1, j-1 {
		s[i], s[j] = s[j], s[i]
	}
}

func reverseEdges(s []Edge) {
	for i, j := 0, len(s)-1; i < j; i, j = i+1, j-1 {
		s[i], s[j] = s[j], s[i]
	}
}

type nodeDist struct {
	node NodeID
	dist float64
}

// push/pop/up/down form a typed min-heap on dist that mirrors
// container/heap's sift algorithms step for step. Less is a strict <, so
// equal-distance siblings keep the same relative order the boxed heap
// produced — pop order, and therefore route tie-breaking, is unchanged.

func (p *PathFinder) push(x nodeDist) {
	p.pq = append(p.pq, x)
	p.up(len(p.pq) - 1)
}

func (p *PathFinder) pop() nodeDist {
	n := len(p.pq) - 1
	p.pq[0], p.pq[n] = p.pq[n], p.pq[0]
	p.down(0, n)
	item := p.pq[n]
	p.pq = p.pq[:n]
	return item
}

func (p *PathFinder) up(j int) {
	q := p.pq
	for {
		i := (j - 1) / 2 // parent
		if i == j || !(q[j].dist < q[i].dist) {
			break
		}
		q[i], q[j] = q[j], q[i]
		j = i
	}
}

func (p *PathFinder) down(i0, n int) {
	q := p.pq
	i := i0
	for {
		j1 := 2*i + 1
		if j1 >= n || j1 < 0 { // j1 < 0 after int overflow
			break
		}
		j := j1
		if j2 := j1 + 1; j2 < n && q[j2].dist < q[j1].dist {
			j = j2
		}
		if !(q[j].dist < q[i].dist) {
			break
		}
		q[i], q[j] = q[j], q[i]
		i = j
	}
}
