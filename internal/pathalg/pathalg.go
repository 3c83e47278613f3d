// Package pathalg implements path algebras (Definition 14): routing
// algebras equipped with a path projection obeying P1–P3. The generic
// Tracked wrapper turns any increasing base algebra into a path algebra by
// recording, in every route, the simple path the route was generated along,
// and rejecting (mapping to ∞) any extension that would loop or break
// contiguity. Per the remark under Definition 14, the result is
// automatically strictly increasing whenever the base algebra is
// increasing, which is what Theorem 11 needs.
package pathalg

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/matrix"
	"repro/internal/paths"
)

// PathAlgebra is a routing algebra with the path projection of Section 5.1.
type PathAlgebra[R any] interface {
	core.Algebra[R]
	// Path returns the simple path the route was generated along; it is ⊥
	// exactly for the invalid route (P1) and [] for the trivial route (P2).
	Path(r R) paths.Path
}

// Route is a route of the Tracked path algebra: a base-algebra route
// annotated with the path it was generated along.
type Route[B any] struct {
	Base B
	Path paths.Path
}

// Tracked lifts a base algebra into a path algebra. Choice prefers the
// better base route and breaks base-level ties with the path order
// (shorter, then lexicographic), which keeps ⊕ selective, commutative and
// associative even when distinct paths carry equal base weight.
type Tracked[B any] struct {
	Base core.Algebra[B]
}

// New wraps base into a path algebra.
func New[B any](base core.Algebra[B]) Tracked[B] { return Tracked[B]{Base: base} }

// normalise collapses anything with an invalid component to the canonical
// invalid route, so P1 holds by construction.
func (t Tracked[B]) normalise(r Route[B]) Route[B] {
	if r.Path.IsInvalid() || core.IsInvalid(t.Base, r.Base) {
		return t.Invalid()
	}
	return r
}

// Choice implements ⊕: base preference first, then the total path order as
// the tie-break.
func (t Tracked[B]) Choice(a, b Route[B]) Route[B] {
	a, b = t.normalise(a), t.normalise(b)
	if !t.Base.Equal(a.Base, b.Base) {
		if core.Less(t.Base, a.Base, b.Base) {
			return a
		}
		return b
	}
	if a.Path.Compare(b.Path) <= 0 {
		return a
	}
	return b
}

// Trivial implements 0: the base trivial route along the empty path (P2).
func (t Tracked[B]) Trivial() Route[B] {
	return Route[B]{Base: t.Base.Trivial(), Path: paths.Empty}
}

// Invalid implements ∞: the base invalid route along ⊥ (P1).
func (t Tracked[B]) Invalid() Route[B] {
	return Route[B]{Base: t.Base.Invalid(), Path: paths.Invalid}
}

// Equal implements route equality: base and path must both agree.
func (t Tracked[B]) Equal(a, b Route[B]) bool {
	a, b = t.normalise(a), t.normalise(b)
	return t.Base.Equal(a.Base, b.Base) && a.Path.Equal(b.Path)
}

// Format implements route rendering.
func (t Tracked[B]) Format(r Route[B]) string {
	r = t.normalise(r)
	if r.Path.IsInvalid() {
		return "∞"
	}
	return fmt.Sprintf("%s via %s", t.Base.Format(r.Base), r.Path)
}

// Path implements the path projection of Definition 14.
func (t Tracked[B]) Path(r Route[B]) paths.Path {
	return t.normalise(r).Path
}

// Edge lifts a base edge weight onto the arc (i, j): the result extends the
// path by (i, j) when that yields a simple contiguous path and applies the
// base weight to the base route; otherwise the route is rejected (P3).
func (t Tracked[B]) Edge(i, j int, base core.Edge[B]) core.Edge[Route[B]] {
	name := fmt.Sprintf("(%d,%d)%s", i, j, base.Label())
	return core.Fn[Route[B]](name, func(r Route[B]) Route[B] {
		r = t.normalise(r)
		if r.Path.IsInvalid() {
			return t.Invalid()
		}
		if !r.Path.CanExtend(i, j) {
			return t.Invalid()
		}
		nb := base.Apply(r.Base)
		if core.IsInvalid(t.Base, nb) {
			return t.Invalid()
		}
		return Route[B]{Base: nb, Path: r.Path.Extend(i, j)}
	})
}

// LiftAdjacency converts an adjacency matrix over the base algebra into one
// over the path algebra, attaching each base edge weight to its arc.
func LiftAdjacency[B any](t Tracked[B], a *matrix.Adjacency[B]) *matrix.Adjacency[Route[B]] {
	out := matrix.NewAdjacency[Route[B]](a.N)
	for i := 0; i < a.N; i++ {
		for j := 0; j < a.N; j++ {
			if e, ok := a.Edge(i, j); ok {
				out.SetEdge(i, j, t.Edge(i, j, e))
			}
		}
	}
	return out
}

// Weight computes weight(p) of Section 5.1 relative to adjacency a: ∞ for
// ⊥, 0 for [], and A_ij(weight(q)) for (i,j)::q. It is generic over any
// algebra whose adjacency performs its own loop rejection (i.e. a lifted or
// natively path-aware adjacency).
func Weight[R any](alg core.Algebra[R], a *matrix.Adjacency[R], p paths.Path) R {
	if p.IsInvalid() {
		return alg.Invalid()
	}
	arcs := p.Arcs()
	w := alg.Trivial()
	for k := len(arcs) - 1; k >= 0; k-- {
		e, ok := a.Edge(arcs[k].From, arcs[k].To)
		if !ok {
			return alg.Invalid()
		}
		w = e.Apply(w)
	}
	return w
}

// Consistent reports whether route r is consistent (Definition 15):
// weight(path(r)) = r. Invalid routes are consistent (their path ⊥ weighs
// ∞).
func Consistent[R any](alg PathAlgebra[R], a *matrix.Adjacency[R], r R) bool {
	return alg.Equal(Weight[R](alg, a, alg.Path(r)), r)
}

// ConsistentRoutes enumerates S_c, the finite set of consistent routes
// towards destination dst: the weights of every simple path. The paper's
// Section 5.2 reuses the finite-carrier ultrametric over this set. Cost is
// exponential in n; intended for the small experiment networks.
func ConsistentRoutes[R any](alg PathAlgebra[R], a *matrix.Adjacency[R], dst int) []R {
	var out []R
	seen := func(r R) bool {
		for _, s := range out {
			if alg.Equal(s, r) {
				return true
			}
		}
		return false
	}
	for _, p := range paths.EnumerateSimple(a.N, dst) {
		w := Weight[R](alg, a, p)
		if !seen(w) {
			out = append(out, w)
		}
	}
	if !seen(alg.Invalid()) {
		out = append(out, alg.Invalid())
	}
	return out
}
