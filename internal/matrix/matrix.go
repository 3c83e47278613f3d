// Package matrix models the global routing state of Section 2.2 as an
// n × n matrix over routes, the network topology as an adjacency matrix of
// edge weights, and one synchronous round of Distributed Bellman-Ford as
// the operator σ(X) = A(X) ⊕ I. Synchronous convergence (Section 2.3) is
// the repeated application of σ to a fixed point.
package matrix

import (
	"fmt"
	"reflect"
	"slices"
	"strings"
	"unicode/utf8"

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

// Format renders the state as an aligned table: each cell left-justified
// and padded with spaces to its column's width, then one space. A column
// is as wide as its longest cell in bytes, and a cell is padded by runes
// (what fmt's %-*s does), so a column holding "∞" (3 bytes, 1 rune) pads
// its one-rune cells by two.
func (x *State[R]) Format(alg core.Algebra[R]) string {
	cols := make([]int, x.N)
	cellStr := make([]string, len(x.cells))
	size := 0
	for c, r := range x.cells {
		s := alg.Format(r)
		cellStr[c] = s
		if j := c % x.N; len(s) > cols[j] {
			cols[j] = len(s)
		}
		size += len(s)
	}
	var b strings.Builder
	b.Grow(2*size + x.N)
	for i := 0; i < x.N; i++ {
		for j, s := range cellStr[i*x.N : (i+1)*x.N] {
			b.WriteString(s)
			for pad := cols[j] - utf8.RuneCountInString(s); pad > 0; pad-- {
				b.WriteByte(' ')
			}
			b.WriteByte(' ')
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// Adjacency is the topology matrix A: A_ij is the weight of the edge from
// i to j, as an edge function. Missing edges behave as the constant-∞
// function.
//
// The n² slots hold no pointers: slot i·n+j is 0 for a missing edge, else
// v for the installed value vals[v−1]. Installing a comparable value that
// is already in the table reuses its index, so a link that flaps between
// two values cannot grow the table; an incomparable value (a func, say)
// is appended at every install.
type Adjacency[R any] struct {
	N     int
	slots []uint32
	vals  []core.Edge[R]
	// index finds a comparable value's slot number once the table
	// outgrows a linear scan; nil until then, and after Clone.
	index map[core.Edge[R]]uint32
	gen   uint64
}

// scanVals is how many installed values SetEdge compares linearly before
// it keeps an index: a topology built from one edge value never builds
// one.
const scanVals = 8

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
	return &Adjacency[R]{N: n, slots: make([]uint32, n*n)}
}

// SetEdge installs the weight of the directed edge from i to j; a nil
// weight removes the edge.
func (a *Adjacency[R]) SetEdge(i, j int, e core.Edge[R]) {
	if i == j {
		panic("matrix: self-loop edges are not part of the model")
	}
	a.slots[i*a.N+j] = a.valueSlot(e)
	a.gen++
}

// valueSlot returns e's slot number, installing e in the table unless it
// is comparable and already there.
func (a *Adjacency[R]) valueSlot(e core.Edge[R]) uint32 {
	if e == nil {
		return 0
	}
	if !reflect.ValueOf(e).Comparable() {
		a.vals = append(a.vals, e)
		return uint32(len(a.vals))
	}
	if a.index == nil && len(a.vals) > scanVals {
		a.index = make(map[core.Edge[R]]uint32, len(a.vals))
		for v, x := range a.vals {
			if reflect.ValueOf(x).Comparable() {
				a.index[x] = uint32(v + 1)
			}
		}
	}
	if a.index != nil {
		if v, ok := a.index[e]; ok {
			return v
		}
		a.vals = append(a.vals, e)
		a.index[e] = uint32(len(a.vals))
		return uint32(len(a.vals))
	}
	for v, x := range a.vals {
		// x == e cannot panic: e's dynamic type is comparable, and values
		// of other dynamic types compare unequal without a deep compare.
		if x == e {
			return uint32(v + 1)
		}
	}
	a.vals = append(a.vals, e)
	return uint32(len(a.vals))
}

// Edge returns the weight of the edge from i to j, or (nil, false) if the
// edge is absent.
func (a *Adjacency[R]) Edge(i, j int) (core.Edge[R], bool) {
	v := a.slots[i*a.N+j]
	if v == 0 {
		return nil, false
	}
	return a.vals[v-1], true
}

// RemoveEdge deletes the edge from i to j (used by the dynamic-network
// experiments of Section 3.2).
func (a *Adjacency[R]) RemoveEdge(i, j int) {
	a.slots[i*a.N+j] = 0
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

// EdgeList returns the weight of every present edge in row order, for use
// as the F-sample of property checks.
func (a *Adjacency[R]) EdgeList() []core.Edge[R] {
	var out []core.Edge[R]
	for _, v := range a.slots {
		if v != 0 {
			out = append(out, a.vals[v-1])
		}
	}
	return out
}

// Clone returns a copy of the adjacency that shares no slot or table
// storage with a (edge functions are immutable by convention, so sharing
// them is safe).
func (a *Adjacency[R]) Clone() *Adjacency[R] {
	return &Adjacency[R]{N: a.N, slots: slices.Clone(a.slots), vals: slices.Clone(a.vals)}
}
