package pathalg

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/matrix"
	"repro/internal/paths"
)

// IRoute is a route of the Interned path algebra: a base-algebra route
// annotated with the hash-consed id of the path it was generated along.
// It is the PathID-carrying counterpart of Route[B]; with a comparable
// base carrier the whole route is a compact comparable value.
type IRoute[B any] struct {
	Base B
	ID   paths.PathID
}

// Interned lifts a base algebra into a path algebra whose routes carry
// interned paths backed by a shared *paths.Table. It decides exactly the
// same algebra as Tracked — Choice, Equal and the edge weights agree cell
// for cell with the reference representation — but path extension is an
// O(1) table probe, equality a pair of O(1) compares, and the tie-break
// path order walks ids only down to their first shared suffix.
type Interned[B comparable] struct {
	Base core.Algebra[B]
	Tab  *paths.Table
}

// NewInterned wraps base into an interned path algebra over tab. A nil
// tab allocates a fresh private table.
func NewInterned[B comparable](base core.Algebra[B], tab *paths.Table) *Interned[B] {
	if tab == nil {
		tab = paths.NewTable()
	}
	return &Interned[B]{Base: base, Tab: tab}
}

// normalise collapses anything with an invalid component to the canonical
// invalid route, so P1 holds by construction (as in Tracked).
func (t *Interned[B]) normalise(r IRoute[B]) IRoute[B] {
	if r.ID.IsInvalid() || core.IsInvalid(t.Base, r.Base) {
		return t.Invalid()
	}
	return r
}

// Choice implements ⊕: base preference first, then the total path order
// as the tie-break — the same decision procedure as Tracked.Choice.
func (t *Interned[B]) Choice(a, b IRoute[B]) IRoute[B] {
	a, b = t.normalise(a), t.normalise(b)
	if !t.Base.Equal(a.Base, b.Base) {
		if core.Less(t.Base, a.Base, b.Base) {
			return a
		}
		return b
	}
	if t.Tab.Compare(a.ID, b.ID) <= 0 {
		return a
	}
	return b
}

// Trivial implements 0: the base trivial route along the empty path (P2).
func (t *Interned[B]) Trivial() IRoute[B] {
	return IRoute[B]{Base: t.Base.Trivial(), ID: paths.EmptyID}
}

// Invalid implements ∞: the base invalid route along ⊥ (P1).
func (t *Interned[B]) Invalid() IRoute[B] {
	return IRoute[B]{Base: t.Base.Invalid(), ID: paths.InvalidID}
}

// Equal implements route equality: base and path id must both agree.
// Hash-consing makes the path half an integer compare.
func (t *Interned[B]) Equal(a, b IRoute[B]) bool {
	a, b = t.normalise(a), t.normalise(b)
	return a.ID == b.ID && t.Base.Equal(a.Base, b.Base)
}

// Format implements route rendering, matching Tracked.Format.
func (t *Interned[B]) Format(r IRoute[B]) string {
	r = t.normalise(r)
	if r.ID.IsInvalid() {
		return "∞"
	}
	return fmt.Sprintf("%s via %s", t.Base.Format(r.Base), t.Tab.String(r.ID))
}

// Path implements the path projection of Definition 14 by materialising
// the interned id.
func (t *Interned[B]) Path(r IRoute[B]) paths.Path {
	return t.Tab.Path(t.normalise(r).ID)
}

// Edge lifts a base edge weight onto the arc (i, j), mirroring
// Tracked.Edge: extension and loop rejection run against the intern
// table, so the steady state allocates nothing.
func (t *Interned[B]) Edge(i, j int, base core.Edge[B]) core.Edge[IRoute[B]] {
	return &arcEdge[B]{t: t, i: i, j: j, base: base,
		name: fmt.Sprintf("(%d,%d)%s", i, j, base.Label())}
}

// arcEdge is the lifted edge weight of one arc as a named type, so the
// columnar backend can recognise it and compile the batched kernel; its
// behaviour and label match the previous closure form exactly.
type arcEdge[B comparable] struct {
	t    *Interned[B]
	i, j int
	base core.Edge[B]
	name string
}

// Apply implements core.Edge: extend the path along (i, j), reject loops,
// then apply the base edge weight.
func (e *arcEdge[B]) Apply(r IRoute[B]) IRoute[B] {
	t := e.t
	r = t.normalise(r)
	if r.ID.IsInvalid() {
		return t.Invalid()
	}
	id := t.Tab.Extend(r.ID, e.i, e.j)
	if id.IsInvalid() {
		return t.Invalid()
	}
	nb := e.base.Apply(r.Base)
	if core.IsInvalid(t.Base, nb) {
		return t.Invalid()
	}
	return IRoute[B]{Base: nb, ID: id}
}

// Label implements core.Edge.
func (e *arcEdge[B]) Label() string { return e.name }

// LiftAdjacencyInterned converts an adjacency matrix over the base
// algebra into one over the interned path algebra — the counterpart of
// LiftAdjacency for the interned carrier.
func LiftAdjacencyInterned[B comparable](t *Interned[B], a *matrix.Adjacency[B]) *matrix.Adjacency[IRoute[B]] {
	out := matrix.NewAdjacency[IRoute[B]](a.N)
	for i := 0; i < a.N; i++ {
		for j := 0; j < a.N; j++ {
			if e, ok := a.Edge(i, j); ok {
				out.SetEdge(i, j, t.Edge(i, j, e))
			}
		}
	}
	return out
}

// FromTracked interns a reference-representation route.
func (t *Interned[B]) FromTracked(r Route[B]) IRoute[B] {
	if r.Path.IsInvalid() || core.IsInvalid(t.Base, r.Base) {
		return t.Invalid()
	}
	return IRoute[B]{Base: r.Base, ID: t.Tab.Intern(r.Path)}
}

// ToTracked materialises an interned route back into the reference
// representation, for differential tests and mixed pipelines.
func (t *Interned[B]) ToTracked(r IRoute[B]) Route[B] {
	r = t.normalise(r)
	return Route[B]{Base: r.Base, Path: t.Tab.Path(r.ID)}
}
