// Package core defines routing algebras (Definition 1 of the paper): the
// carrier of routes S, the selective choice operator ⊕, the distinguished
// trivial route 0 and invalid route ∞, and edge weights as functions S → S.
// It also provides the order induced by ⊕ and machine checkers for every
// algebraic property in Table 1.
//
// The paper's tuple (S, ⊕, F, 0, ∞) splits across two Go types: Algebra
// carries S, ⊕, 0 and ∞, while the edge-weight set F is represented by the
// Edge values attached to links of a concrete network (see package matrix).
package core

// Algebra is a routing algebra over route type R. Implementations must
// satisfy the minimal properties of Definition 1, which CheckRequired
// verifies on a finite sample:
//
//   - Choice is associative, commutative and selective;
//   - Trivial() is an annihilator for Choice;
//   - Invalid() is an identity for Choice;
//   - Invalid() is a fixed point of every edge function.
type Algebra[R any] interface {
	// Choice is ⊕: it returns the preferred of the two routes and must
	// be selective (return one of its arguments up to Equal).
	Choice(a, b R) R
	// Trivial is 0, the route from any node to itself, preferred over
	// every other route.
	Trivial() R
	// Invalid is ∞, the invalid route, less preferred than every route.
	Invalid() R
	// Equal is decidable equality on routes.
	Equal(a, b R) bool
	// Format renders a route for diagnostics and tables.
	Format(r R) string
}

// Edge is a single edge weight f ∈ F: a function from routes to routes
// that extends a route across one link. Extending the invalid route must
// yield the invalid route.
type Edge[R any] interface {
	Apply(r R) R
	// Label describes the edge weight for diagnostics, e.g. "+3" or a
	// policy program.
	Label() string
}

// EdgeFunc adapts a plain function (plus a label) to the Edge interface.
type EdgeFunc[R any] struct {
	F    func(R) R
	Name string
}

// Apply implements Edge.
func (e EdgeFunc[R]) Apply(r R) R { return e.F(r) }

// Label implements Edge.
func (e EdgeFunc[R]) Label() string { return e.Name }

// Fn is shorthand for constructing an EdgeFunc.
func Fn[R any](name string, f func(R) R) Edge[R] {
	return EdgeFunc[R]{F: f, Name: name}
}

// ConstInvalid returns the edge weight representing a missing link: it maps
// every route to the invalid route of alg.
func ConstInvalid[R any](alg Algebra[R]) Edge[R] {
	return EdgeFunc[R]{F: func(R) R { return alg.Invalid() }, Name: "∞"}
}

// Leq reports a ≤ b in the order induced by ⊕: a ≤ b iff a ⊕ b = a.
// Because ⊕ is associative, commutative and selective, ≤ is a total order
// with Trivial() as minimum and Invalid() as maximum.
func Leq[R any](alg Algebra[R], a, b R) bool {
	return alg.Equal(alg.Choice(a, b), a)
}

// Less reports a < b: a ≤ b and a ≠ b.
func Less[R any](alg Algebra[R], a, b R) bool {
	return Leq(alg, a, b) && !alg.Equal(a, b)
}

// IsInvalid reports whether r equals the invalid route of alg.
func IsInvalid[R any](alg Algebra[R], r R) bool {
	return alg.Equal(r, alg.Invalid())
}

// Enumerable is implemented by algebras whose route set S is finite and can
// be listed in full. The distance-vector convergence theorem (Theorem 7)
// requires finiteness; the ultrametric heights of Section 4.1 are computed
// by counting over Universe().
type Enumerable[R any] interface {
	// Universe returns every route in S, including Trivial and Invalid,
	// with no duplicates (up to Equal).
	Universe() []R
}
