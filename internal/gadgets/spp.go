// Package gadgets encodes the classic misbehaving instances from the
// interdomain-routing literature that motivate the paper (Section 1):
// DISAGREE (multiple stable states), BAD GADGET (no stable state — the
// persistent oscillation of RFC 3345), and the BGP wedgie of RFC 4264
// (an unintended second stable state reachable after a link flap).
//
// The instances are expressed as Stable Paths Problems (Griffin, Shepherd
// & Wilfong): each node carries a ranked list of permitted paths to the
// destination. The SPP algebra below embeds such rankings into the
// paper's algebraic framework — routes are (rank, path) pairs and the edge
// function of node i assigns ranks from i's table — so the same σ/δ
// machinery that proves the increasing algebras converge also exhibits the
// anomalies of the non-increasing ones.
package gadgets

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/matrix"
	"repro/internal/paths"
)

// Route is an SPP route: the rank the owning node assigns to its path
// (lower is better) plus the path itself. The invalid route has the
// maximal rank and path ⊥.
type Route struct {
	Rank uint32
	Path paths.Path
}

// InvalidRank is the rank of the invalid route.
const InvalidRank = ^uint32(0)

// SPP is a stable-paths-problem instance: a destination node and, for
// every other node, a ranking of permitted paths. Ranks must be ≥ 1 (rank
// 0 is reserved for the trivial route at the destination itself).
type SPP struct {
	// N is the number of nodes; the destination is node Dest.
	N    int
	Dest int
	// rankings[i] maps a permitted path (by string key) to its rank.
	rankings []map[string]uint32
	// arcs lists the underlying links, derived from permitted paths.
	arcs map[paths.Arc]bool
}

// NewSPP creates an empty instance over n nodes with destination dest.
func NewSPP(n, dest int) *SPP {
	s := &SPP{N: n, Dest: dest, rankings: make([]map[string]uint32, n), arcs: make(map[paths.Arc]bool)}
	for i := range s.rankings {
		s.rankings[i] = make(map[string]uint32)
	}
	return s
}

// Permit registers a permitted path at its source node with the given
// rank. The path is supplied as a node sequence starting at the owning
// node and ending at the destination, e.g. Permit(2, 1, 2, 3, 0) permits
// path 2→3→0 at node 2 with rank 1. Permit panics on non-simple paths,
// paths not ending at the destination, or rank < 1.
func (s *SPP) Permit(rank uint32, nodes ...int) {
	if rank < 1 {
		panic("gadgets: rank must be ≥ 1")
	}
	p := paths.FromNodes(nodes...)
	if p.IsInvalid() || p.IsEmpty() {
		panic(fmt.Sprintf("gadgets: %v is not a usable simple path", nodes))
	}
	if d, _ := p.Destination(); d != s.Dest {
		panic(fmt.Sprintf("gadgets: path %s does not end at destination %d", p, s.Dest))
	}
	src, _ := p.Source()
	s.rankings[src][p.String()] = rank
	for _, a := range p.Arcs() {
		s.arcs[a] = true
	}
}

// Clone returns an independent copy of the instance. Scenario runs that
// edit rankings mid-run (live policy edits) mutate their own copy, so the
// pristine instance stays reusable.
func (s *SPP) Clone() *SPP {
	c := NewSPP(s.N, s.Dest)
	for i, m := range s.rankings {
		for k, v := range m {
			c.rankings[i][k] = v
		}
	}
	for a := range s.arcs {
		c.arcs[a] = true
	}
	return c
}

// SetRank re-ranks an already-permitted path at its source node — the SPP
// form of a live policy edit. It reports whether the path was permitted;
// unknown paths are left alone (adding a path would also add arcs, which
// is Permit's job).
func (s *SPP) SetRank(rank uint32, nodes ...int) bool {
	if rank < 1 {
		return false
	}
	p := paths.FromNodes(nodes...)
	if p.IsInvalid() || p.IsEmpty() {
		return false
	}
	src, _ := p.Source()
	if _, ok := s.rankings[src][p.String()]; !ok {
		return false
	}
	s.rankings[src][p.String()] = rank
	return true
}

// Rank returns the rank node i assigns to path p, or (0, false) if the
// path is not permitted at i.
func (s *SPP) Rank(i int, p paths.Path) (uint32, bool) {
	r, ok := s.rankings[i][p.String()]
	return r, ok
}

// PermittedPaths lists node i's permitted (rank, path) pairs in rank
// order.
func (s *SPP) PermittedPaths(i int) []Route {
	var out []Route
	for key, rank := range s.rankings[i] {
		if p, ok := parsePathKey(key); ok {
			out = append(out, Route{Rank: rank, Path: p})
		}
	}
	for a := 1; a < len(out); a++ {
		for b := a; b > 0 && compare(out[b], out[b-1]) < 0; b-- {
			out[b], out[b-1] = out[b-1], out[b]
		}
	}
	return out
}

// Algebra is the SPP routing algebra: choice by (rank, path) and edges
// that rank freshly extended paths using the receiving node's table.
type Algebra struct {
	S *SPP
}

// compare orders (rank, path) pairs.
func compare(a, b Route) int {
	switch {
	case a.Rank < b.Rank:
		return -1
	case a.Rank > b.Rank:
		return 1
	}
	return a.Path.Compare(b.Path)
}

// Choice implements ⊕.
func (g Algebra) Choice(a, b Route) Route {
	if compare(a, b) <= 0 {
		return a
	}
	return b
}

// Trivial implements 0: rank 0 along the empty path.
func (Algebra) Trivial() Route { return Route{Rank: 0, Path: paths.Empty} }

// Invalid implements ∞.
func (Algebra) Invalid() Route { return Route{Rank: InvalidRank, Path: paths.Invalid} }

// Equal implements route equality.
func (Algebra) Equal(a, b Route) bool {
	return a.Rank == b.Rank && a.Path.Equal(b.Path)
}

// Format implements route rendering.
func (Algebra) Format(r Route) string {
	if r.Path.IsInvalid() {
		return "∞"
	}
	return fmt.Sprintf("%s#%d", r.Path, r.Rank)
}

// Path implements the path projection, making Algebra a path algebra.
func (Algebra) Path(r Route) paths.Path { return r.Path }

// Edge builds the edge function of arc (i, j): extend the path by (i, j)
// and look the result up in node i's ranking; unpermitted paths are
// filtered. Nothing forces a longer path to rank worse, which is exactly
// how the gadgets violate the increasing condition.
func (g Algebra) Edge(i, j int) core.Edge[Route] {
	return core.Fn[Route](fmt.Sprintf("spp(%d,%d)", i, j), func(r Route) Route {
		if r.Path.IsInvalid() || !r.Path.CanExtend(i, j) {
			return g.Invalid()
		}
		p := r.Path.Extend(i, j)
		rank, ok := g.S.Rank(i, p)
		if !ok {
			return g.Invalid()
		}
		return Route{Rank: rank, Path: p}
	})
}

// Adjacency builds the adjacency matrix induced by the permitted paths.
func (g Algebra) Adjacency() *matrix.Adjacency[Route] {
	adj := matrix.NewAdjacency[Route](g.S.N)
	for a := range g.S.arcs {
		adj.SetEdge(a.From, a.To, g.Edge(a.From, a.To))
	}
	return adj
}

// SampleRoutes returns every permitted (rank, path) pair plus 0 and ∞, the
// natural finite sample for property checking, in a fixed order (node by
// node, each node's paths as PermittedPaths sorts them) so that anything
// computed over the sample is reproducible.
func (g Algebra) SampleRoutes() []Route {
	out := []Route{g.Trivial(), g.Invalid()}
	for i := 0; i < g.S.N; i++ {
		out = append(out, g.S.PermittedPaths(i)...)
	}
	return out
}

// parsePathKey reverses paths.Path.String for valid non-empty paths
// ("1->2->0").
func parsePathKey(key string) (paths.Path, bool) {
	var nodes []int
	cur, have := 0, false
	for i := 0; i < len(key); i++ {
		c := key[i]
		switch {
		case c >= '0' && c <= '9':
			cur = cur*10 + int(c-'0')
			have = true
		case c == '-' || c == '>':
			if have {
				nodes = append(nodes, cur)
				cur, have = 0, false
			}
		default:
			return paths.Invalid, false
		}
	}
	if have {
		nodes = append(nodes, cur)
	}
	p := paths.FromNodes(nodes...)
	return p, !p.IsInvalid() && !p.IsEmpty()
}
