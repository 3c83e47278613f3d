package pathalg

import (
	"math/rand"
	"testing"

	"repro/internal/algebras"
	"repro/internal/core"
	"repro/internal/matrix"
	"repro/internal/paths"
)

type spRoute = Route[algebras.NatInf]

// spNet builds a path-tracking shortest-paths network over the line graph.
func spNet(n int) (Tracked[algebras.NatInf], *matrix.Adjacency[spRoute]) {
	base := algebras.ShortestPaths{}
	t := New[algebras.NatInf](base)
	baseAdj := matrix.NewAdjacency[algebras.NatInf](n)
	for i := 0; i+1 < n; i++ {
		baseAdj.SetEdge(i, i+1, base.AddEdge(1))
		baseAdj.SetEdge(i+1, i, base.AddEdge(1))
	}
	return t, LiftAdjacency(t, baseAdj)
}

func TestP1P2(t *testing.T) {
	alg, _ := spNet(3)
	// P1: x = ∞ ⇔ path(x) = ⊥.
	if !alg.Path(alg.Invalid()).IsInvalid() {
		t.Error("P1: path(∞) must be ⊥")
	}
	if alg.Path(alg.Trivial()).IsInvalid() {
		t.Error("P1: path(0) must not be ⊥")
	}
	// P2: path(0) = [].
	if !alg.Path(alg.Trivial()).IsEmpty() {
		t.Error("P2: path(0) must be []")
	}
}

func TestP3LoopRejection(t *testing.T) {
	alg, adj := spNet(4)
	// Route owned by node 1 with path 1->2: extending over edge (2,1)
	// would put 2 at the head; the path becomes 2->1->2 — a loop — so the
	// edge function must return ∞.
	r := spRoute{Base: 1, Path: paths.FromNodes(1, 2)}
	e, ok := adj.Edge(2, 1)
	if !ok {
		t.Fatal("edge (2,1) missing")
	}
	if got := e.Apply(r); !alg.Equal(got, alg.Invalid()) {
		t.Errorf("loop extension must be ∞, got %s", alg.Format(got))
	}
	// Contiguity: edge (0,1) extends a path with source 1 only.
	e01, _ := adj.Edge(0, 1)
	bad := spRoute{Base: 1, Path: paths.FromNodes(2, 3)}
	if got := e01.Apply(bad); !alg.Equal(got, alg.Invalid()) {
		t.Errorf("non-contiguous extension must be ∞, got %s", alg.Format(got))
	}
	good := spRoute{Base: 1, Path: paths.FromNodes(1, 2)}
	if got := e01.Apply(good); alg.Equal(got, alg.Invalid()) {
		t.Error("legal extension must not be ∞")
	} else if got.Path.String() != "0->1->2" {
		t.Errorf("extended path = %s", got.Path)
	}
}

func TestIncreasingBaseBecomesStrictlyIncreasing(t *testing.T) {
	// The remark under Definition 14: even a non-strict base (here
	// zero-weight shortest paths) yields a strictly increasing path
	// algebra, because the path grows on every application.
	base := algebras.ShortestPaths{}
	alg := New[algebras.NatInf](base)
	baseAdj := matrix.NewAdjacency[algebras.NatInf](3)
	baseAdj.SetEdge(0, 1, base.AddEdge(0)) // zero weight!
	baseAdj.SetEdge(1, 0, base.AddEdge(0))
	adj := LiftAdjacency(alg, baseAdj)

	routes := []spRoute{
		alg.Trivial(), alg.Invalid(),
		{Base: 0, Path: paths.FromNodes(1, 0)},
		{Base: 0, Path: paths.FromNodes(0, 1)},
	}
	s := core.Sample[spRoute]{Routes: routes, Edges: adj.EdgeList()}
	if rep := core.Check[spRoute](alg, core.StrictlyIncreasing, s); !rep.Holds {
		t.Fatalf("path tracking must force strict increase: %s", rep.Counterexample)
	}
}

func TestRequiredLawsHold(t *testing.T) {
	alg, adj := spNet(3)
	routes := []spRoute{
		alg.Trivial(), alg.Invalid(),
		{Base: 1, Path: paths.FromNodes(0, 1)},
		{Base: 2, Path: paths.FromNodes(0, 1, 2)},
		{Base: 2, Path: paths.FromNodes(2, 1)},
	}
	s := core.Sample[spRoute]{Routes: routes, Edges: adj.EdgeList()}
	if err := core.CheckRequired[spRoute](alg, s); err != nil {
		t.Fatal(err)
	}
}

func TestChoiceTieBreakByPath(t *testing.T) {
	alg, _ := spNet(4)
	// Same base weight, different paths: shorter path wins; the winner is
	// one of the arguments (selectivity).
	a := spRoute{Base: 2, Path: paths.FromNodes(0, 1, 2)}
	b := spRoute{Base: 2, Path: paths.FromNodes(0, 3)}
	got := alg.Choice(a, b)
	if !alg.Equal(got, b) {
		t.Errorf("Choice should prefer the shorter path, got %s", alg.Format(got))
	}
	if !alg.Equal(alg.Choice(a, b), alg.Choice(b, a)) {
		t.Error("tie-break must be commutative")
	}
}

func TestNormalisation(t *testing.T) {
	alg, _ := spNet(3)
	// A route with invalid base but valid path collapses to ∞, and vice
	// versa.
	weird := spRoute{Base: algebras.Inf, Path: paths.FromNodes(0, 1)}
	if !alg.Equal(weird, alg.Invalid()) {
		t.Error("invalid base must normalise to ∞")
	}
	weird2 := spRoute{Base: 1, Path: paths.Invalid}
	if !alg.Equal(weird2, alg.Invalid()) {
		t.Error("⊥ path must normalise to ∞")
	}
	if alg.Format(weird) != "∞" {
		t.Errorf("Format = %s", alg.Format(weird))
	}
}

func TestWeightAndConsistency(t *testing.T) {
	alg, adj := spNet(4)
	p := paths.FromNodes(3, 2, 1, 0)
	w := Weight[spRoute](alg, adj, p)
	if w.Base != 3 || !w.Path.Equal(p) {
		t.Errorf("weight(%s) = %s", p, alg.Format(w))
	}
	if !Consistent[spRoute](alg, adj, w) {
		t.Error("weight of a real path must be consistent")
	}
	// A stale route along a non-existent edge (0,3) is inconsistent.
	stale := spRoute{Base: 1, Path: paths.FromNodes(0, 3)}
	if Consistent[spRoute](alg, adj, stale) {
		t.Error("route across a missing edge must be inconsistent")
	}
	// A route with the wrong base weight is inconsistent.
	lying := spRoute{Base: 7, Path: paths.FromNodes(1, 0)}
	if Consistent[spRoute](alg, adj, lying) {
		t.Error("route with wrong weight must be inconsistent")
	}
	// Invalid and trivial routes are consistent.
	if !Consistent[spRoute](alg, adj, alg.Invalid()) || !Consistent[spRoute](alg, adj, alg.Trivial()) {
		t.Error("∞ and 0 are consistent")
	}
}

func TestConsistencyPreservedBySigma(t *testing.T) {
	// Section 5.1: if every route in X is consistent, so is every route in
	// σ(X).
	alg, adj := spNet(4)
	x := matrix.Identity[spRoute](alg, 4)
	for it := 0; it < 6; it++ {
		x.Each(func(i, j int, r spRoute) {
			if !Consistent[spRoute](alg, adj, r) {
				t.Fatalf("iteration %d: route %s at (%d,%d) is inconsistent", it, alg.Format(r), i, j)
			}
		})
		x = matrix.Sigma[spRoute](alg, adj, x)
	}
}

func TestConsistentRoutesEnumeration(t *testing.T) {
	alg, adj := spNet(3)
	sc := ConsistentRoutes[spRoute](alg, adj, 0)
	// Every enumerated route must be consistent, and contain 0, ∞.
	foundTrivial, foundInvalid := false, false
	for _, r := range sc {
		if !Consistent[spRoute](alg, adj, r) {
			t.Errorf("enumerated route %s not consistent", alg.Format(r))
		}
		if alg.Equal(r, alg.Trivial()) {
			foundTrivial = true
		}
		if alg.Equal(r, alg.Invalid()) {
			foundInvalid = true
		}
	}
	if !foundTrivial || !foundInvalid {
		t.Error("S_c must contain 0 and ∞")
	}
	// Line 0-1-2: paths to 0 are [], 1->0, 2->1->0 and the invalids from
	// off-topology paths; S_c = {0@[], 1@1->0, 2@2->1->0, ∞}.
	if len(sc) != 4 {
		t.Errorf("S_c has %d elements, want 4", len(sc))
	}
}

func TestCountToInfinityCured(t *testing.T) {
	// The Section 5 motivation: plain shortest-path DV counts to infinity
	// from stale states, while path tracking flushes the stale route.
	base := algebras.ShortestPaths{}

	// Topology after failure: only 0—1 remains; node 1's stale route to 2
	// claims distance 1 (via the vanished edge).
	plainAdj := matrix.NewAdjacency[algebras.NatInf](3)
	plainAdj.SetEdge(0, 1, base.AddEdge(1))
	plainAdj.SetEdge(1, 0, base.AddEdge(1))
	stale := matrix.Identity[algebras.NatInf](base, 3)
	stale.Set(1, 2, 1) // stale claim

	_, _, ok := matrix.FixedPoint[algebras.NatInf](base, plainAdj, stale, 64)
	if ok {
		t.Error("plain DV should still be counting to infinity after 64 rounds")
	}

	// Path-vector version of the same situation.
	alg := New[algebras.NatInf](base)
	adj := LiftAdjacency(alg, plainAdj)
	staleTracked := matrix.Identity[spRoute](alg, 3)
	staleTracked.Set(1, 2, spRoute{Base: 1, Path: paths.FromNodes(1, 2)})
	fp, rounds, ok := matrix.FixedPoint[spRoute](alg, adj, staleTracked, 64)
	if !ok {
		t.Fatal("path vector must converge from the stale state")
	}
	if rounds > 4 {
		t.Errorf("path vector took %d rounds, expected a handful", rounds)
	}
	if !alg.Equal(fp.Get(1, 2), alg.Invalid()) {
		t.Errorf("node 1's route to unreachable 2 must be ∞, got %s", alg.Format(fp.Get(1, 2)))
	}
}

func TestRandomStatesConvergeToSameFixedPoint(t *testing.T) {
	// Theorem 11 consequence, synchronously: from arbitrary (inconsistent)
	// states, σ reaches the same fixed point.
	alg, adj := spNet(4)
	want, _, ok := matrix.FixedPoint[spRoute](alg, adj, matrix.Identity[spRoute](alg, 4), 100)
	if !ok {
		t.Fatal("clean start must converge")
	}
	rng := rand.New(rand.NewSource(11))
	gen := func(rng *rand.Rand, i, j int) spRoute {
		switch rng.Intn(4) {
		case 0:
			return alg.Invalid()
		case 1:
			return alg.Trivial()
		default:
			// Arbitrary garbage: random base, random path.
			perm := rng.Perm(4)
			p := paths.FromNodes(perm[:1+rng.Intn(3)]...)
			return spRoute{Base: algebras.NatInf(rng.Intn(5)), Path: p}
		}
	}
	for trial := 0; trial < 50; trial++ {
		start := matrix.RandomState(rng, 4, gen)
		got, _, ok := matrix.FixedPoint[spRoute](alg, adj, start, 200)
		if !ok {
			t.Fatalf("trial %d did not converge", trial)
		}
		if !got.Equal(alg, want) {
			t.Fatalf("trial %d converged to a different state:\n%s\nwant:\n%s",
				trial, got.Format(alg), want.Format(alg))
		}
	}
}
