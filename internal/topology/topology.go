// Package topology builds the network graphs used by the experiments:
// deterministic families (paths, rings, grids, cliques, stars), random
// graphs, and the fat-tree of the data-centre discussion in Section 8.3.
// Graphs are plain arc sets; callers attach algebra-specific edge weights
// via Build.
package topology

import (
	"fmt"
	"math/rand"

	"repro/internal/core"
	"repro/internal/matrix"
	"repro/internal/paths"
)

// Graph is a directed graph over nodes 0..N-1.
type Graph struct {
	N    int
	Arcs []paths.Arc
}

// addSym appends both directions of an undirected link.
func (g *Graph) addSym(i, j int) {
	g.Arcs = append(g.Arcs, paths.Arc{From: i, To: j}, paths.Arc{From: j, To: i})
}

// Line is the path graph 0 — 1 — ... — n−1.
func Line(n int) Graph {
	g := Graph{N: n}
	for i := 0; i+1 < n; i++ {
		g.addSym(i, i+1)
	}
	return g
}

// Ring is the cycle over n nodes.
func Ring(n int) Graph {
	g := Line(n)
	if n > 2 {
		g.addSym(n-1, 0)
	}
	return g
}

// Complete is the clique K_n.
func Complete(n int) Graph {
	g := Graph{N: n}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			g.addSym(i, j)
		}
	}
	return g
}

// Star connects node 0 to every other node.
func Star(n int) Graph {
	g := Graph{N: n}
	for i := 1; i < n; i++ {
		g.addSym(0, i)
	}
	return g
}

// Grid is the w × h lattice; node (x, y) has index y*w + x.
func Grid(w, h int) Graph {
	g := Graph{N: w * h}
	id := func(x, y int) int { return y*w + x }
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			if x+1 < w {
				g.addSym(id(x, y), id(x+1, y))
			}
			if y+1 < h {
				g.addSym(id(x, y), id(x, y+1))
			}
		}
	}
	return g
}

// ErdosRenyi samples G(n, p) as an undirected graph and then joins any
// disconnected components along a random spanning chain so that the result
// is always connected (disconnected networks trivially converge per
// component and only dilute the experiments).
func ErdosRenyi(rng *rand.Rand, n int, p float64) Graph {
	g := Graph{N: n}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if rng.Float64() < p {
				g.addSym(i, j)
			}
		}
	}
	// Union-find to detect components.
	parent := make([]int, n)
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	union := func(a, b int) { parent[find(a)] = find(b) }
	for _, a := range g.Arcs {
		union(a.From, a.To)
	}
	perm := rng.Perm(n)
	for idx := 1; idx < n; idx++ {
		a, b := perm[idx-1], perm[idx]
		if find(a) != find(b) {
			g.addSym(a, b)
			union(a, b)
		}
	}
	return g
}

// FatTreeRole labels the layer of a fat-tree switch.
type FatTreeRole uint8

// Fat-tree layers.
const (
	CoreSwitch FatTreeRole = iota
	AggSwitch
	EdgeSwitch
)

// FatTree builds the switch fabric of a k-ary fat tree (k even): (k/2)²
// core switches, k pods each with k/2 aggregation and k/2 edge switches.
// Returned roles are indexed by node id. This is the data-centre topology
// of the Section 8.3 discussion.
func FatTree(k int) (Graph, []FatTreeRole) {
	if k < 2 || k%2 != 0 {
		panic("topology: FatTree requires even k ≥ 2")
	}
	half := k / 2
	numCore := half * half
	numAggPerPod := half
	numEdgePerPod := half
	n := numCore + k*(numAggPerPod+numEdgePerPod)
	g := Graph{N: n}
	roles := make([]FatTreeRole, n)
	core := func(i int) int { return i }
	agg := func(pod, i int) int { return numCore + pod*(numAggPerPod+numEdgePerPod) + i }
	edge := func(pod, i int) int { return numCore + pod*(numAggPerPod+numEdgePerPod) + numAggPerPod + i }
	for i := 0; i < numCore; i++ {
		roles[core(i)] = CoreSwitch
	}
	for pod := 0; pod < k; pod++ {
		for i := 0; i < numAggPerPod; i++ {
			roles[agg(pod, i)] = AggSwitch
			// Aggregation switch i of each pod connects to core switches
			// i*half .. i*half+half-1.
			for c := 0; c < half; c++ {
				g.addSym(agg(pod, i), core(i*half+c))
			}
		}
		for i := 0; i < numEdgePerPod; i++ {
			roles[edge(pod, i)] = EdgeSwitch
			for a := 0; a < numAggPerPod; a++ {
				g.addSym(edge(pod, i), agg(pod, a))
			}
		}
	}
	return g, roles
}

// Named builds the graph a command line or scenario names: line, ring,
// grid (the smallest square of at least n nodes), clique, star, random
// (G(n, 0.3) drawn from seed) or fattree (n is k, the graph has 5k²/4
// nodes).
func Named(name string, n int, seed int64) (Graph, error) {
	switch name {
	case "line":
		return Line(n), nil
	case "ring":
		return Ring(n), nil
	case "grid":
		side := 2
		for side*side < n {
			side++
		}
		return Grid(side, side), nil
	case "clique":
		return Complete(n), nil
	case "star":
		return Star(n), nil
	case "random":
		return ErdosRenyi(rand.New(rand.NewSource(seed)), n, 0.3), nil
	case "fattree":
		if n < 2 || n%2 != 0 {
			return Graph{}, fmt.Errorf("fattree needs an even k ≥ 2, got %d", n)
		}
		g, _ := FatTree(n)
		return g, nil
	}
	return Graph{}, fmt.Errorf("unknown topology %q (want line|ring|grid|clique|star|random|fattree)", name)
}

// Build attaches algebra-specific weights to the arcs of g: weight(i, j)
// returns the edge function for arc (i → j).
func Build[R any](g Graph, weight func(i, j int) core.Edge[R]) *matrix.Adjacency[R] {
	adj := matrix.NewAdjacency[R](g.N)
	for _, a := range g.Arcs {
		adj.SetEdge(a.From, a.To, weight(a.From, a.To))
	}
	return adj
}

// BuildUniform attaches the same edge function to every arc.
func BuildUniform[R any](g Graph, e core.Edge[R]) *matrix.Adjacency[R] {
	return Build(g, func(_, _ int) core.Edge[R] { return e })
}
