package router

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/algebras"
	"repro/internal/matrix"
)

// ring is a 5-node bidirectional RIP ring, its identity start and σ's
// fixed point on it.
func ring(t *testing.T) (algebras.HopCount, *matrix.Adjacency[algebras.NatInf], *matrix.State[algebras.NatInf], *matrix.State[algebras.NatInf]) {
	t.Helper()
	alg := algebras.HopCount{Limit: 15}
	n := 5
	adj := matrix.NewAdjacency[algebras.NatInf](n)
	for i := 0; i < n; i++ {
		j := (i + 1) % n
		adj.SetEdge(i, j, alg.AddEdge(1))
		adj.SetEdge(j, i, alg.AddEdge(1))
	}
	start := matrix.Identity[algebras.NatInf](alg, n)
	fp, _, ok := matrix.FixedPoint[algebras.NatInf](alg, adj, start, 4*n)
	if !ok {
		t.Fatal("no σ fixed point")
	}
	return alg, adj, start, fp
}

// TestSettled: the shared half of quiescence holds at the σ fixed point
// and fails while a node is down, while a cache some edge reads disagrees
// with its sender, and away from the fixed point.
func TestSettled(t *testing.T) {
	alg, adj, start, fp := ring(t)
	r := New[algebras.NatInf](alg, adj, fp)
	if !r.Settled() {
		t.Fatal("not settled at the σ fixed point with agreeing caches")
	}
	r.Down[2] = true
	if r.Settled() {
		t.Error("settled while node 2 is down")
	}
	r.Down[2] = false
	r.Install(1, 0, start.Row(0))
	if r.Settled() {
		t.Error("settled while node 1's cache of node 0 is stale")
	}
	r.Install(1, 0, fp.Row(0))
	r.Install(1, 3, start.Row(3)) // no edge (1, 3): Recompute never reads it
	if !r.Settled() {
		t.Error("a cache no edge reads blocked settling")
	}
	if New[algebras.NatInf](alg, adj, start).Settled() {
		t.Error("settled at the identity state, which σ moves")
	}
}

// TestRecomputeReachesFixedPoint: round-robin activations with every
// advert installed at once reach σ's fixed point; onChange sees each
// changed cell with its old and new route, and a row that does not move
// reports no change.
func TestRecomputeReachesFixedPoint(t *testing.T) {
	alg, adj, start, fp := ring(t)
	r := New[algebras.NatInf](alg, adj, start)
	for round := 0; round < 4*adj.N; round++ {
		for i := 0; i < adj.N; i++ {
			before := r.State.Row(i)
			var seen []int
			row, changed := r.Recompute(i, func(j int, old, new algebras.NatInf) {
				if old != before[j] || new == old {
					t.Fatalf("onChange(%d, %v, %v) but the cell held %v", j, old, new, before[j])
				}
				seen = append(seen, j)
			})
			if changed != (len(seen) > 0) || !slices.Equal(row, r.State.Row(i)) {
				t.Fatalf("node %d: changed=%v with %d cells reported", i, changed, len(seen))
			}
			for _, j := range r.Listeners(i) {
				r.Install(j, i, r.State.Row(i))
			}
		}
	}
	if !r.State.Equal(alg, fp) || !r.Settled() {
		t.Fatalf("did not settle on the fixed point:\n%s", r.State.Format(alg))
	}
	if _, changed := r.Recompute(3, nil); changed {
		t.Error("recompute at the fixed point changed a row")
	}
}

// TestWipe: a nil genRoute leaves the identity row and invalid caches;
// with genRoute, the routes are drawn for the table (skipping the self
// cell) and then cache by cache, in node order.
func TestWipe(t *testing.T) {
	alg, adj, _, fp := ring(t)
	n := adj.N
	r := New[algebras.NatInf](alg, adj, fp)
	r.Wipe(2, nil, nil)
	if want := matrix.Identity[algebras.NatInf](alg, n).Row(2); !slices.Equal(r.State.Row(2), want) {
		t.Errorf("wiped row %v, want the identity row %v", r.State.Row(2), want)
	}
	for k := 0; k < n; k++ {
		for _, v := range r.recv[2][k] {
			if !alg.Equal(v, alg.Invalid()) {
				t.Fatalf("cache (2, %d) = %v after a wipe, want all invalid", k, r.recv[2][k])
			}
		}
	}

	next := algebras.NatInf(0)
	count := func(*rand.Rand) algebras.NatInf { next++; return next }
	r.Wipe(1, count, nil)
	want := []algebras.NatInf{1, 0, 2, 3, 4}
	if !slices.Equal(r.State.Row(1), want) {
		t.Errorf("garbage row %v, want %v", r.State.Row(1), want)
	}
	for k := 0; k < n; k++ {
		for j, v := range r.recv[1][k] {
			if want := algebras.NatInf(n + k*n + j); v != want {
				t.Fatalf("cache (1, %d)[%d] = %v, want draw %v", k, j, v, want)
			}
		}
	}
	if next != algebras.NatInf(n-1+n*n) {
		t.Errorf("%d routes drawn, want %d", next, n-1+n*n)
	}
}

// TestListenersFollowMutate: removing an edge (j, i) takes j off i's
// listeners, a listener slice read before Mutate is left as it was, and
// the caller's adjacency is never touched.
func TestListenersFollowMutate(t *testing.T) {
	alg, adj, start, _ := ring(t)
	r := New[algebras.NatInf](alg, adj, start)
	before := r.Listeners(0)
	if !slices.Equal(before, []int{1, 4}) {
		t.Fatalf("listeners of 0 = %v, want [1 4]", before)
	}
	r.Mutate(func(a *matrix.Adjacency[algebras.NatInf]) { a.RemoveEdge(1, 0) })
	if got := r.Listeners(0); !slices.Equal(got, []int{4}) {
		t.Errorf("after removing (1, 0), listeners of 0 = %v, want [4]", got)
	}
	if !slices.Equal(before, []int{1, 4}) {
		t.Errorf("Mutate rewrote a listener slice already handed out: %v", before)
	}
	if _, ok := adj.Edge(1, 0); !ok {
		t.Error("Mutate edited the caller's adjacency, not the router's clone")
	}
}
