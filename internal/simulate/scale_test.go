package simulate

import (
	"math/rand"
	"testing"

	"repro/internal/algebras"
	"repro/internal/gaorexford"
	"repro/internal/matrix"
	"repro/internal/topology"
)

// TestScaleRandomGraphRIP soaks the simulator at a size well beyond the
// unit tests: a 40-node random graph with faults, from a garbage state.
func TestScaleRandomGraphRIP(t *testing.T) {
	if testing.Short() {
		t.Skip("scale test skipped in -short mode")
	}
	const n = 40
	alg := algebras.HopCount{Limit: 63}
	rng := rand.New(rand.NewSource(4001))
	g := topology.ErdosRenyi(rng, n, 0.12)
	adj := topology.BuildUniform[algebras.NatInf](g, alg.AddEdge(1))
	want, _, ok := matrix.FixedPoint[algebras.NatInf](alg, adj, matrix.Identity[algebras.NatInf](alg, n), 300)
	if !ok {
		t.Fatal("σ must converge")
	}
	start := matrix.RandomStateFrom(rng, n, alg.Universe())
	out := Run[algebras.NatInf](alg, adj, start, Config{
		Seed:     4001,
		LossProb: 0.2,
		DupProb:  0.1,
		MaxDelay: 20,
		MaxTime:  5_000_000,
	}, nil)
	if !out.Converged {
		t.Fatalf("40-node run did not converge: %s", out.Describe())
	}
	if !out.Final.Equal(alg, want) {
		t.Fatal("40-node run reached a different fixed point")
	}
}

// TestScaleFatTreeGaoRexford soaks the k=6 fat tree (45 switches) under
// the Gao–Rexford algebra with a mid-run core-switch restart.
func TestScaleFatTreeGaoRexford(t *testing.T) {
	if testing.Short() {
		t.Skip("scale test skipped in -short mode")
	}
	g, roles := topology.FatTree(6)
	alg := gaorexford.Algebra{MaxHops: 10}
	layer := func(r topology.FatTreeRole) int {
		switch r {
		case topology.CoreSwitch:
			return 2
		case topology.AggSwitch:
			return 1
		default:
			return 0
		}
	}
	adj := matrix.NewAdjacency[gaorexford.Route](g.N)
	for _, a := range g.Arcs {
		switch {
		case layer(roles[a.To]) < layer(roles[a.From]):
			adj.SetEdge(a.From, a.To, alg.Edge(gaorexford.CustomerEdge))
		case layer(roles[a.To]) > layer(roles[a.From]):
			adj.SetEdge(a.From, a.To, alg.Edge(gaorexford.ProviderEdge))
		default:
			adj.SetEdge(a.From, a.To, alg.Edge(gaorexford.PeerEdge))
		}
	}
	want, _, ok := matrix.FixedPoint[gaorexford.Route](alg, adj, matrix.Identity[gaorexford.Route](alg, g.N), 200)
	if !ok {
		t.Fatal("fabric must converge synchronously")
	}
	u := alg.Universe()
	gen := func(rng *rand.Rand) gaorexford.Route { return u[rng.Intn(len(u))] }
	out := Run[gaorexford.Route](alg, adj, matrix.Identity[gaorexford.Route](alg, g.N), Config{
		Seed:     4002,
		LossProb: 0.15,
		MaxTime:  5_000_000,
	}, gen, restartAt[gaorexford.Route](300, 0), restartAt[gaorexford.Route](600, 1))
	if !out.Converged {
		t.Fatalf("k=6 fabric did not converge: %s", out.Describe())
	}
	if !out.Final.Equal(alg, want) {
		t.Fatal("k=6 fabric reached a different fixed point")
	}
}
