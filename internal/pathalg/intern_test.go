package pathalg_test

import (
	"testing"

	"repro/internal/algebras"
	"repro/internal/matrix"
	"repro/internal/pathalg"
	"repro/internal/paths"
	"repro/internal/topology"
)

// TestInternedMatchesTracked iterates σ to the fixed point under both
// path representations and requires cell-for-cell agreement after
// materialising, on every round along the way.
func TestInternedMatchesTracked(t *testing.T) {
	base := algebras.ShortestPaths{}
	tr := pathalg.New[algebras.NatInf](base)
	in := pathalg.NewInterned[algebras.NatInf](base, nil)

	g := topology.Ring(7)
	baseAdj := topology.BuildUniform[algebras.NatInf](g, base.AddEdge(1))
	baseAdj.SetEdge(0, 3, base.AddEdge(2))
	baseAdj.SetEdge(3, 0, base.AddEdge(2))
	adjT := pathalg.LiftAdjacency(tr, baseAdj)
	adjI := pathalg.LiftAdjacencyInterned(in, baseAdj)

	type RT = pathalg.Route[algebras.NatInf]
	type RI = pathalg.IRoute[algebras.NatInf]
	xt := matrix.Identity[RT](tr, g.N)
	xi := matrix.Identity[RI](in, g.N)
	for round := 0; round < 20; round++ {
		for i := 0; i < g.N; i++ {
			for j := 0; j < g.N; j++ {
				want := xt.Get(i, j)
				got := in.ToTracked(xi.Get(i, j))
				if !tr.Equal(got, want) {
					t.Fatalf("round %d cell (%d,%d): interned %s vs tracked %s",
						round, i, j, in.Format(xi.Get(i, j)), tr.Format(want))
				}
				if in.Equal(xi.Get(i, j), in.FromTracked(want)) != true {
					t.Fatalf("round %d cell (%d,%d): FromTracked disagrees", round, i, j)
				}
			}
		}
		xt = matrix.Sigma[RT](tr, adjT, xt)
		xi = matrix.Sigma[RI](in, adjI, xi)
	}
}

// TestInternedIsPathAlgebra checks the Definition 14 projection contract.
func TestInternedIsPathAlgebra(t *testing.T) {
	base := algebras.ShortestPaths{}
	in := pathalg.NewInterned[algebras.NatInf](base, paths.NewTable())
	var _ pathalg.PathAlgebra[pathalg.IRoute[algebras.NatInf]] = in

	if !in.Path(in.Invalid()).IsInvalid() {
		t.Fatal("P1: path of ∞ must be ⊥")
	}
	if !in.Path(in.Trivial()).IsEmpty() {
		t.Fatal("P2: path of 0 must be []")
	}
	// A normalising Equal: an invalid id with a valid base is ∞.
	weird := pathalg.IRoute[algebras.NatInf]{Base: 3, ID: paths.InvalidID}
	if !in.Equal(weird, in.Invalid()) {
		t.Fatal("Equal must normalise invalid components")
	}
}
