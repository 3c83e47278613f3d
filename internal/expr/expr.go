// Package expr is the experiment harness: one entry point per table and
// figure of the paper (and per headline claim of its sections), each
// printing the regenerated rows to an io.Writer and returning a structured
// result the tests and benchmarks assert on.
package expr

import (
	"fmt"
	"io"
	"text/tabwriter"

	"repro/internal/algebras"
	"repro/internal/core"
	"repro/internal/matrix"
	"repro/internal/pathalg"
	"repro/internal/paths"
	"repro/internal/policy"
)

// pathFromNodes is a tiny indirection so the experiment files read
// naturally.
func pathFromNodes(ns ...int) paths.Path { return paths.FromNodes(ns...) }

// newTab builds the standard table writer used by every experiment.
func newTab(w io.Writer) *tabwriter.Writer {
	return tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
}

// section prints a header line for an experiment.
func section(w io.Writer, id, title string) {
	fmt.Fprintf(w, "\n=== %s — %s ===\n", id, title)
}

// pass renders a boolean as a ✓/✗ marker.
func pass(ok bool) string {
	if ok {
		return "✓"
	}
	return "✗"
}

// ripRing is the standard 4-node policy-rich distance-vector network used
// across the experiments: a unit ring plus a conditionally filtered chord.
func ripRing() (algebras.HopCount, *matrix.Adjacency[algebras.NatInf]) {
	alg := algebras.HopCount{Limit: 7}
	adj := matrix.NewAdjacency[algebras.NatInf](4)
	link := func(i, j int, w algebras.NatInf) {
		adj.SetEdge(i, j, alg.AddEdge(w))
		adj.SetEdge(j, i, alg.AddEdge(w))
	}
	link(0, 1, 1)
	link(1, 2, 1)
	link(2, 3, 1)
	link(3, 0, 1)
	adj.SetEdge(0, 2, alg.ConditionalEdge(1, algebras.DistanceAtMost(3)))
	return alg, adj
}

// pvRing is the standard 4-node path-vector network: tracked shortest
// paths over a weighted ring.
func pvRing() (pathalg.Tracked[algebras.NatInf], *matrix.Adjacency[pathalg.Route[algebras.NatInf]]) {
	base := algebras.ShortestPaths{}
	alg := pathalg.New[algebras.NatInf](base)
	baseAdj := matrix.NewAdjacency[algebras.NatInf](4)
	link := func(i, j int, w algebras.NatInf) {
		baseAdj.SetEdge(i, j, base.AddEdge(w))
		baseAdj.SetEdge(j, i, base.AddEdge(w))
	}
	link(0, 1, 1)
	link(1, 2, 1)
	link(2, 3, 1)
	link(3, 0, 2)
	return alg, pathalg.LiftAdjacency(alg, baseAdj)
}

// policyRing is the standard 4-node Section 7 network with conditional
// community-based policies.
func policyRing() (policy.Algebra, *matrix.Adjacency[policy.Route]) {
	alg := policy.Algebra{}
	adj := matrix.NewAdjacency[policy.Route](4)
	pol := func(i int) policy.Policy {
		return policy.Compose(
			policy.AddComm(policy.Community(i)),
			policy.If(policy.InComm(policy.Community((i+1)%4)), policy.IncrPrefBy(1)),
		)
	}
	for i := 0; i < 4; i++ {
		j := (i + 1) % 4
		adj.SetEdge(i, j, alg.Edge(i, j, pol(i)))
		adj.SetEdge(j, i, alg.Edge(j, i, pol(j)))
	}
	return alg, adj
}

// checkMatrix runs every Table 1 property for one algebra sample and
// returns the reports in stable order.
func checkMatrix[R any](alg core.Algebra[R], s core.Sample[R]) []core.Report {
	return core.CheckAll(alg, s)
}
