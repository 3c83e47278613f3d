// Data-centre routing (Section 8.3): BGP as the IGP of a k=4 fat tree.
// Edge, aggregation and core switches speak the Gao–Rexford algebra —
// lower layers are "customers" of upper layers — which the library
// certifies as strictly increasing, so the fabric converges from any
// state, including after simulated switch restarts.
package main

import (
	"fmt"
	"log"
	"math/rand"

	"repro/internal/core"
	"repro/internal/gaorexford"
	"repro/internal/matrix"
	"repro/internal/simulate"
	"repro/internal/topology"
)

func main() {
	g, roles := topology.FatTree(4)
	fmt.Printf("k=4 fat tree: %d switches (%d core / %d agg / %d edge)\n",
		g.N, count(roles, topology.CoreSwitch), count(roles, topology.AggSwitch), count(roles, topology.EdgeSwitch))

	alg := gaorexford.Algebra{MaxHops: 8}

	// Wire relationships by layer: on a link between layers, the lower
	// switch is the customer. (i ← j edge weight: what i applies to
	// routes heard from j.)
	adj := topology.Build[gaorexford.Route](g, func(i, j int) core.Edge[gaorexford.Route] {
		switch {
		case layer(roles[j]) < layer(roles[i]):
			// j is below i: i hears from its customer.
			return alg.Edge(gaorexford.CustomerEdge)
		case layer(roles[j]) > layer(roles[i]):
			// j is above i: i hears from its provider.
			return alg.Edge(gaorexford.ProviderEdge)
		default:
			return alg.Edge(gaorexford.PeerEdge)
		}
	})

	// Certify the configuration before deploying it.
	sample := core.UniverseSample[gaorexford.Route](alg, alg, alg.Edges())
	rep := core.Check[gaorexford.Route](alg, core.StrictlyIncreasing, sample)
	fmt.Printf("strictly increasing (certified over %d cases): %v\n", rep.Checked, rep.Holds)
	if !rep.Holds {
		log.Fatal(rep.Counterexample)
	}

	clean := matrix.Identity[gaorexford.Route](alg, g.N)
	want, rounds, ok := matrix.FixedPoint[gaorexford.Route](alg, adj, clean, 200)
	if !ok {
		log.Fatal("fabric did not converge synchronously")
	}
	fmt.Printf("synchronous convergence in %d rounds\n", rounds)

	// Sanity: cross-pod edge-to-edge routes climb to the core and back
	// (up/down valley-free routing), 4 AS hops.
	src, dst := pick(roles, topology.EdgeSwitch, 0), pick(roles, topology.EdgeSwitch, 7)
	r := want.Get(src, dst)
	fmt.Printf("edge %d → edge %d: %s (provider-learned, 4 hops up-and-down)\n",
		src, dst, alg.Format(r))
	if r == alg.Invalid() {
		log.Fatal("cross-pod route missing — relationship wiring is wrong")
	}

	// Operate the fabric under stress: 15% loss, and three switches
	// restarting with garbage state mid-run.
	u := alg.Universe()
	gen := func(rng *rand.Rand) gaorexford.Route { return u[rng.Intn(len(u))] }
	restartAt := func(t int64, i int) simulate.Event[gaorexford.Route] {
		return simulate.Event[gaorexford.Route]{Time: t, Apply: func(s *simulate.Sim[gaorexford.Route]) { s.RestartNode(i) }}
	}
	out := simulate.Run[gaorexford.Route](alg, adj, clean, simulate.Config{
		Seed:     4,
		LossProb: 0.15,
		DupProb:  0.05,
		MaxDelay: 12,
		MaxTime:  2_000_000,
	}, gen,
		restartAt(200, pick(roles, topology.CoreSwitch, 1)),
		restartAt(400, pick(roles, topology.AggSwitch, 3)),
		restartAt(600, src),
	)
	fmt.Printf("async run with restarts: %s\n", out.Describe())
	if !out.Converged || !out.Final.Equal(alg, want) {
		log.Fatal("fabric failed to re-converge to the unique solution")
	}
	fmt.Println("fabric re-converged to the same routes after every restart ✓")
}

func layer(r topology.FatTreeRole) int {
	switch r {
	case topology.CoreSwitch:
		return 2
	case topology.AggSwitch:
		return 1
	default:
		return 0
	}
}

func count(roles []topology.FatTreeRole, want topology.FatTreeRole) int {
	n := 0
	for _, r := range roles {
		if r == want {
			n++
		}
	}
	return n
}

func pick(roles []topology.FatTreeRole, want topology.FatTreeRole, k int) int {
	for i, r := range roles {
		if r == want {
			if k == 0 {
				return i
			}
			k--
		}
	}
	return -1
}
