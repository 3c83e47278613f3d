// Package router is the per-node protocol state of asynchronous
// Distributed Bellman-Ford, written once for both message-passing
// substrates. Each node keeps a receive cache per neighbour (δ's β
// lookup), recomputes its σ-row from them (matrix.SigmaRowInto), and
// advertises the row to the nodes whose σ-row reads it.
//
// A Router does no locking, keeps no clock and sends nothing: the event
// simulator (internal/simulate) drives it in virtual time, the live
// network (internal/dist) under its lock in wall-clock time, and each
// driver carries the adverts itself.
package router

import (
	"math/rand"
	"slices"

	"repro/internal/core"
	"repro/internal/matrix"
)

// Router is the protocol state of every node of one network.
type Router[R any] struct {
	alg core.Algebra[R]
	adj *matrix.Adjacency[R]
	// State is the omniscient global view: row i is node i's table.
	State *matrix.State[R]
	// Down[i] marks node i crashed and not yet recovered.
	Down []bool
	// recv[i][k] is the latest table row installed at i from k.
	recv [][][]R
	// listeners[i] lists, ascending, the nodes j ≠ i with an edge (j, i):
	// the nodes whose σ-row reads i's table.
	listeners [][]int
	// scratch is the buffer Recompute computes σ-rows into.
	scratch []R
}

// New builds the state of a network that starts from start: every
// receive cache holds its sender's starting row (β = 0). The adjacency
// and the state are cloned, so the caller's copies are never mutated.
func New[R any](alg core.Algebra[R], adj *matrix.Adjacency[R], start *matrix.State[R]) *Router[R] {
	n := adj.N
	r := &Router[R]{
		alg:     alg,
		adj:     adj.Clone(),
		State:   start.Clone(),
		Down:    make([]bool, n),
		recv:    make([][][]R, n),
		scratch: make([]R, n),
	}
	for i := range r.recv {
		r.recv[i] = make([][]R, n)
		for k := range r.recv[i] {
			r.recv[i][k] = start.Row(k)
		}
	}
	r.rebuildListeners()
	return r
}

// Mutate edits the adjacency in place (add or remove edges, swap
// policies) and recomputes who listens to whom.
func (r *Router[R]) Mutate(f func(adj *matrix.Adjacency[R])) {
	f(r.adj)
	r.rebuildListeners()
}

func (r *Router[R]) rebuildListeners() {
	n := r.adj.N
	r.listeners = make([][]int, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if _, ok := r.adj.Edge(j, i); ok && i != j {
				r.listeners[i] = append(r.listeners[i], j)
			}
		}
	}
}

// Listeners returns the nodes whose σ-row reads i's table. Mutate
// replaces the slice rather than editing it, so a caller may keep it
// past later calls; it must not modify it.
func (r *Router[R]) Listeners(i int) []int { return r.listeners[i] }

// Install stores row as the latest table node i has received from k.
// The router keeps row; the caller must not modify it afterwards.
func (r *Router[R]) Install(i, k int, row []R) { r.recv[i][k] = row }

// Recompute recomputes node i's row from its receive caches and installs
// it when some cell differs from the current table. It returns the
// computed row — valid until the next Recompute — and whether it was
// installed. onChange, when non-nil, sees each changed cell's old and new
// route before the row is installed.
func (r *Router[R]) Recompute(i int, onChange func(j int, old, new R)) ([]R, bool) {
	row := matrix.SigmaRowInto(r.alg, r.adj, i, r.recv[i], r.scratch)
	changed := false
	for j := range row {
		if r.alg.Equal(row[j], r.State.Get(i, j)) {
			continue
		}
		changed = true
		if onChange == nil {
			break
		}
		onChange(j, r.State.Get(i, j), row[j])
	}
	if changed {
		r.State.SetRow(i, row)
	}
	return row, changed
}

// Wipe reboots node i: its table becomes trivial to itself and its
// receive caches are lost. With a nil genRoute every other cell of the
// table and every cache entry is invalid; otherwise each is an arbitrary
// route drawn from rng — the table first, then cache by cache.
func (r *Router[R]) Wipe(i int, genRoute func(*rand.Rand) R, rng *rand.Rand) {
	n := r.adj.N
	route := func() R {
		if genRoute == nil {
			return r.alg.Invalid()
		}
		return genRoute(rng)
	}
	for j := 0; j < n; j++ {
		if j == i {
			r.State.Set(i, j, r.alg.Trivial())
		} else {
			r.State.Set(i, j, route())
		}
	}
	for k := 0; k < n; k++ {
		fresh := make([]R, n)
		for j := range fresh {
			fresh[j] = route()
		}
		r.recv[i][k] = fresh
	}
}

// Settled reports the half of quiescence the router can see: no node is
// down (a partitioned network is not settled), the global state is
// σ-stable, and every receive cache that some edge reads agrees with its
// sender's current table. Then every activation recomputes exactly the
// current state; a driver adds what it knows of adverts still in flight.
func (r *Router[R]) Settled() bool {
	if slices.Contains(r.Down, true) || !matrix.IsStable(r.alg, r.adj, r.State) {
		return false
	}
	n := r.adj.N
	for i := 0; i < n; i++ {
		for k := 0; k < n; k++ {
			// Only a cache that an edge (i, k) makes Recompute read counts.
			if _, ok := r.adj.Edge(i, k); ok && !slices.EqualFunc(r.recv[i][k], r.State.RowView(k), r.alg.Equal) {
				return false
			}
		}
	}
	return true
}
