// Package matrix models the global routing state of Section 2.2 as an
// n × n matrix over routes, the network topology as an adjacency matrix of
// edge weights, and one synchronous round of Distributed Bellman-Ford as
// the operator σ(X) = A(X) ⊕ I. Synchronous convergence (Section 2.3) is
// the repeated application of σ to a fixed point.
package matrix

import (
	"fmt"
	"strings"

	"repro/internal/core"
)

// State is an n × n routing-state matrix X ∈ 𝕄_n(S): row i is node i's
// routing table and X_ij is node i's best current route to node j.
type State[R any] struct {
	N     int
	cells []R
}

// NewState allocates an n × n state with every cell set to fill.
func NewState[R any](n int, fill R) *State[R] {
	cells := make([]R, n*n)
	for i := range cells {
		cells[i] = fill
	}
	return &State[R]{N: n, cells: cells}
}

// Identity returns the matrix I with 0 on the diagonal and ∞ elsewhere.
func Identity[R any](alg core.Algebra[R], n int) *State[R] {
	x := NewState(n, alg.Invalid())
	for i := 0; i < n; i++ {
		x.Set(i, i, alg.Trivial())
	}
	return x
}

// Get returns X_ij.
func (x *State[R]) Get(i, j int) R { return x.cells[i*x.N+j] }

// Set assigns X_ij.
func (x *State[R]) Set(i, j int, r R) { x.cells[i*x.N+j] = r }

// Row returns a copy of row i (node i's routing table).
func (x *State[R]) Row(i int) []R {
	out := make([]R, x.N)
	copy(out, x.cells[i*x.N:(i+1)*x.N])
	return out
}

// RowView returns row i's backing slice without copying. Mutating the
// state invalidates the view's contents; callers that need a stable copy
// must use Row.
func (x *State[R]) RowView(i int) []R { return x.cells[i*x.N : (i+1)*x.N] }

// RowViews returns a view of every row, indexed by node. It is the
// zero-copy neighbour-table form consumed by SigmaRowInto.
func (x *State[R]) RowViews() [][]R {
	out := make([][]R, x.N)
	for i := range out {
		out[i] = x.RowView(i)
	}
	return out
}

// SetRow overwrites row i with the given table (length must be N).
func (x *State[R]) SetRow(i int, row []R) {
	if len(row) != x.N {
		panic(fmt.Sprintf("matrix: SetRow length %d != N %d", len(row), x.N))
	}
	copy(x.cells[i*x.N:(i+1)*x.N], row)
}

// Clone returns a deep copy of x.
func (x *State[R]) Clone() *State[R] {
	cells := make([]R, len(x.cells))
	copy(cells, x.cells)
	return &State[R]{N: x.N, cells: cells}
}

// Equal reports whether x and y agree in every cell under alg.Equal.
func (x *State[R]) Equal(alg core.Algebra[R], y *State[R]) bool {
	if x.N != y.N {
		return false
	}
	for i := range x.cells {
		if !alg.Equal(x.cells[i], y.cells[i]) {
			return false
		}
	}
	return true
}

// Each calls fn for every cell (i, j, X_ij).
func (x *State[R]) Each(fn func(i, j int, r R)) {
	for i := 0; i < x.N; i++ {
		for j := 0; j < x.N; j++ {
			fn(i, j, x.Get(i, j))
		}
	}
}

// Format renders the state as an aligned table.
func (x *State[R]) Format(alg core.Algebra[R]) string {
	cols := make([]int, x.N)
	cellStr := make([][]string, x.N)
	for i := 0; i < x.N; i++ {
		cellStr[i] = make([]string, x.N)
		for j := 0; j < x.N; j++ {
			s := alg.Format(x.Get(i, j))
			cellStr[i][j] = s
			if len(s) > cols[j] {
				cols[j] = len(s)
			}
		}
	}
	var b strings.Builder
	for i := 0; i < x.N; i++ {
		for j := 0; j < x.N; j++ {
			fmt.Fprintf(&b, "%-*s ", cols[j], cellStr[i][j])
		}
		b.WriteString("\n")
	}
	return b.String()
}

// Adjacency is the topology matrix A: A_ij is the weight of the edge from
// i to j, as an edge function. Missing edges are represented by nil and
// behave as the constant-∞ function.
type Adjacency[R any] struct {
	N     int
	edges []core.Edge[R]
	gen   uint64
}

// Generation counts the mutations (SetEdge/RemoveEdge) this adjacency has
// seen; derived views (the engine's compiled kernels) use it to detect
// topology changes and invalidate themselves.
func (a *Adjacency[R]) Generation() uint64 { return a.gen }

// Touch bumps the generation without changing any edge. Mutations that
// change edge *behaviour* without reinstalling an edge value — say, a
// policy table the edge functions close over — call it so derived views
// (compiled kernels) know to invalidate.
func (a *Adjacency[R]) Touch() { a.gen++ }

// NewAdjacency allocates an n × n adjacency matrix with no edges.
func NewAdjacency[R any](n int) *Adjacency[R] {
	return &Adjacency[R]{N: n, edges: make([]core.Edge[R], n*n)}
}

// SetEdge installs the weight of the directed edge from i to j.
func (a *Adjacency[R]) SetEdge(i, j int, e core.Edge[R]) {
	if i == j {
		panic("matrix: self-loop edges are not part of the model")
	}
	a.edges[i*a.N+j] = e
	a.gen++
}

// Edge returns the weight of the edge from i to j, or (nil, false) if the
// edge is absent.
func (a *Adjacency[R]) Edge(i, j int) (core.Edge[R], bool) {
	e := a.edges[i*a.N+j]
	return e, e != nil
}

// RemoveEdge deletes the edge from i to j (used by the dynamic-network
// experiments of Section 3.2).
func (a *Adjacency[R]) RemoveEdge(i, j int) {
	a.edges[i*a.N+j] = nil
	a.gen++
}

// Apply computes A_ij(r): the extension of route r across edge (i, j),
// which is ∞ for missing edges.
func (a *Adjacency[R]) Apply(alg core.Algebra[R], i, j int, r R) R {
	if e, ok := a.Edge(i, j); ok {
		return e.Apply(r)
	}
	return alg.Invalid()
}

// Edges returns every present edge as (i, j, weight) triples in row order.
func (a *Adjacency[R]) Edges() []struct {
	I, J int
	E    core.Edge[R]
} {
	var out []struct {
		I, J int
		E    core.Edge[R]
	}
	for i := 0; i < a.N; i++ {
		for j := 0; j < a.N; j++ {
			if e, ok := a.Edge(i, j); ok {
				out = append(out, struct {
					I, J int
					E    core.Edge[R]
				}{i, j, e})
			}
		}
	}
	return out
}

// EdgeList returns the distinct edge functions present in A, for use as the
// F-sample of property checks.
func (a *Adjacency[R]) EdgeList() []core.Edge[R] {
	var out []core.Edge[R]
	for _, e := range a.edges {
		if e != nil {
			out = append(out, e)
		}
	}
	return out
}

// Clone returns a shallow copy of the adjacency (edge functions are
// immutable by convention, so sharing them is safe).
func (a *Adjacency[R]) Clone() *Adjacency[R] {
	edges := make([]core.Edge[R], len(a.edges))
	copy(edges, a.edges)
	return &Adjacency[R]{N: a.N, edges: edges}
}
