package policy

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/paths"
)

// IRoute is the interned carrier of the Section 7 algebra: the same
// attributes as Route, with the simple path hash-consed into a PathID
// backed by a shared *paths.Table. The struct is comparable, so routes
// double as map keys for edge memoisation, and equality needs no path
// walk.
type IRoute struct {
	invalid bool
	LPref   uint32
	Comms   CommunitySet
	ID      paths.PathID
	Pad     uint8
	// plen caches the arc count of ID so the decision procedure's length
	// step needs no table access (and no lock) — equal ids always have
	// equal plen, so comparability and Equal are unaffected. It is
	// maintained incrementally: +1 per extension.
	plen int32
}

// IsInvalid reports whether r is the invalid route.
func (r IRoute) IsInvalid() bool { return r.invalid }

// EffectiveLength is unavailable on IRoute without its table; use
// Interned.EffectiveLength.

// Interned is the Section 7 algebra over the interned carrier. It
// decides exactly the same order as Algebra on the corresponding Route
// values — the decision procedure is unchanged, only the path
// representation differs — and implements pathalg.PathAlgebra[IRoute].
type Interned struct {
	Tab *paths.Table
}

// NewInterned builds the interned policy algebra over tab (a fresh
// private table when nil).
func NewInterned(tab *paths.Table) *Interned {
	if tab == nil {
		tab = paths.NewTable()
	}
	return &Interned{Tab: tab}
}

// InvalidIRoute is the invalid route ∞ of the interned carrier.
var InvalidIRoute = IRoute{invalid: true, ID: paths.InvalidID}

// TrivialIRoute is the trivial route 0 = valid 0 ∅ [].
var TrivialIRoute = IRoute{}

// FromRoute interns a reference-representation route.
func (t *Interned) FromRoute(r Route) IRoute {
	if r.invalid {
		return InvalidIRoute
	}
	return IRoute{LPref: r.LPref, Comms: r.Comms, ID: t.Tab.Intern(r.Path), Pad: r.Pad, plen: int32(r.Path.Len())}
}

// ToRoute materialises an interned route back into the reference
// representation.
func (t *Interned) ToRoute(r IRoute) Route {
	if r.invalid {
		return InvalidRoute
	}
	return Route{LPref: r.LPref, Comms: r.Comms, Path: t.Tab.Path(r.ID), Pad: r.Pad}
}

// EffectiveLength is the path length the decision procedure compares:
// the real (interned) path plus any prepending padding. It reads the
// length carried in the route, touching no shared state.
func (t *Interned) EffectiveLength(r IRoute) int { return int(r.plen) + int(r.Pad) }

// Compare orders interned routes by the Section 7 decision procedure,
// step for step identical to Route.Compare; only step 4's lexicographic
// path comparison consults the table (and exits early on equal ids).
func (t *Interned) Compare(r, s IRoute) int {
	switch {
	case r.invalid && s.invalid:
		return 0
	case r.invalid:
		return 1
	case s.invalid:
		return -1
	}
	switch {
	case r.LPref < s.LPref:
		return -1
	case r.LPref > s.LPref:
		return 1
	}
	switch {
	case t.EffectiveLength(r) < t.EffectiveLength(s):
		return -1
	case t.EffectiveLength(r) > t.EffectiveLength(s):
		return 1
	}
	if d := t.Tab.Compare(r.ID, s.ID); d != 0 {
		return d
	}
	switch {
	case r.Comms < s.Comms:
		return -1
	case r.Comms > s.Comms:
		return 1
	case r.Pad < s.Pad:
		return -1
	case r.Pad > s.Pad:
		return 1
	}
	return 0
}

// Choice implements ⊕ via the decision procedure.
func (t *Interned) Choice(a, b IRoute) IRoute {
	if t.Compare(a, b) <= 0 {
		return a
	}
	return b
}

// Trivial implements 0 = valid 0 ∅ [].
func (*Interned) Trivial() IRoute { return TrivialIRoute }

// Invalid implements ∞.
func (*Interned) Invalid() IRoute { return InvalidIRoute }

// Equal implements route equality: with the path hash-consed, routes
// are equal iff their (comparable) field tuples coincide — no Compare
// walk. Invalid routes are identified regardless of other fields.
func (*Interned) Equal(a, b IRoute) bool {
	if a.invalid || b.invalid {
		return a.invalid == b.invalid
	}
	return a == b
}

// Format implements route rendering, matching Route.String.
func (t *Interned) Format(r IRoute) string {
	if r.invalid {
		return "∞"
	}
	if r.Pad > 0 {
		return fmt.Sprintf("⟨lp=%d c=%s p=%s+%d⟩", r.LPref, r.Comms, t.Tab.String(r.ID), r.Pad)
	}
	return fmt.Sprintf("⟨lp=%d c=%s p=%s⟩", r.LPref, r.Comms, t.Tab.String(r.ID))
}

// Path implements the path projection of path algebras.
func (t *Interned) Path(r IRoute) paths.Path {
	if r.invalid {
		return paths.Invalid
	}
	return t.Tab.Path(r.ID)
}

// Edge builds the interned edge weight f_{i,j,pol}, mirroring
// Algebra.Edge: the path extends (one table probe) before the policy
// runs, so conditions can inspect the new first hop.
func (t *Interned) Edge(i, j int, pol Policy) core.Edge[IRoute] {
	return &polEdge{t: t, i: i, j: j, pol: pol, name: "f(" + pol.String() + ")"}
}

// polEdge is the interned edge weight as a named type, so the columnar
// backend can recognise it and compile the batched kernel; its behaviour
// and label match the previous closure form exactly.
type polEdge struct {
	t    *Interned
	i, j int
	pol  Policy
	name string
}

// Apply implements core.Edge.
func (e *polEdge) Apply(r IRoute) IRoute {
	if r.invalid {
		return InvalidIRoute
	}
	id := e.t.Tab.Extend(r.ID, e.i, e.j)
	if id.IsInvalid() {
		return InvalidIRoute
	}
	return e.t.apply(e.pol, IRoute{LPref: r.LPref, Comms: r.Comms, ID: id, Pad: r.Pad, plen: r.plen + 1})
}

// Label implements core.Edge.
func (e *polEdge) Label() string { return e.name }

// apply interprets a policy program over the interned carrier, the exact
// analogue of Policy.Apply on Route: same constructors, same saturation,
// same order of effects — only InPath tests run against the table.
func (t *Interned) apply(pol Policy, r IRoute) IRoute {
	if r.invalid {
		return InvalidIRoute
	}
	switch p := pol.(type) {
	case rejectPolicy:
		return InvalidIRoute
	case prependPolicy:
		pad := int(r.Pad) + int(p.by)
		if pad > 255 {
			pad = 255
		}
		r.Pad = uint8(pad)
		return r
	case incrPrefPolicy:
		lp := r.LPref + p.by
		if lp < r.LPref { // saturate on wrap-around
			lp = ^uint32(0)
		}
		r.LPref = lp
		return r
	case addCommPolicy:
		r.Comms = r.Comms.Add(p.c)
		return r
	case delCommPolicy:
		r.Comms = r.Comms.Remove(p.c)
		return r
	case composePolicy:
		return t.apply(p.q, t.apply(p.p, r))
	case conditionPolicy:
		if t.eval(p.c, r) {
			return t.apply(p.p, r)
		}
		return r
	default:
		// An externally defined Policy cannot see IRoute; round-trip
		// through the reference carrier so custom policies keep working.
		return t.FromRoute(pol.Apply(t.ToRoute(r)))
	}
}

// eval interprets a condition over the interned carrier; InPath is the
// only predicate that touches the path, answered by the table's
// membership summary.
func (t *Interned) eval(cond Condition, r IRoute) bool {
	switch c := cond.(type) {
	case andCond:
		return t.eval(c.l, r) && t.eval(c.r, r)
	case orCond:
		return t.eval(c.l, r) || t.eval(c.r, r)
	case notCond:
		return !t.eval(c.c, r)
	case inPathCond:
		return !r.invalid && t.Tab.Contains(r.ID, c.node)
	case inCommCond:
		return !r.invalid && r.Comms.Has(c.c)
	case lprefEqCond:
		return !r.invalid && r.LPref == c.v
	default:
		return cond.Eval(t.ToRoute(r))
	}
}
