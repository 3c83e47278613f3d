package expr

import (
	"fmt"
	"io"
	"math/rand"

	"repro/internal/algebras"
	"repro/internal/engine"
	"repro/internal/matrix"
	"repro/internal/pathalg"
	"repro/internal/paths"
	"repro/internal/topology"
)

// RateRow is one point of the E10 convergence-rate sweep.
type RateRow struct {
	Algebra string
	Graph   string
	N       int
	// CleanRounds is σ-rounds to converge from the clean (identity)
	// state.
	CleanRounds int
	// WorstRounds is the worst σ-rounds observed over random starting
	// states.
	WorstRounds int
	// LinearBound and QuadraticBound report CleanRounds ≤ n and
	// WorstRounds ≤ n² respectively.
	LinearBound    bool
	QuadraticBound bool
}

// RateResult is experiment E10.
type RateResult struct {
	Rows []RateRow
	// DistributiveLinear: every distributive row met the O(n) bound.
	DistributiveLinear bool
	// IncreasingQuadratic: every increasing row met the O(n²) bound.
	IncreasingQuadratic bool
}

// ConvergenceRate is experiment E10 (Section 8.1): synchronous rounds to
// convergence as the network grows. The classical theory gives O(n) for
// distributive algebras; the paper's companion work proves a tight O(n²)
// for increasing path algebras. We measure both families — from clean and
// from arbitrary states — and verify the bounds.
//
// Every sweep runs through Engine.FixedPoint, a δ run under the
// Synchronous source with convergence certification: each round
// recomputes only the cells whose inputs changed and the fixed-point
// check costs nothing extra, so the sweep's cost tracks the routes that
// actually move rather than rounds × n².
func ConvergenceRate(w io.Writer, sizes []int, trialsPerSize int) RateResult {
	section(w, "E10 (§8.1)", "rounds to synchronous convergence vs n")
	res := RateResult{DistributiveLinear: true, IncreasingQuadratic: true}
	rng := rand.New(rand.NewSource(1001))

	for _, n := range sizes {
		// (a) Distributive: shortest paths on a line (worst diameter).
		{
			alg := algebras.ShortestPaths{}
			g := topology.Line(n)
			adj := topology.BuildUniform[algebras.NatInf](g, alg.AddEdge(1))
			eng := engine.New[algebras.NatInf](alg, adj, engine.Config{})
			_, clean, ok := eng.FixedPoint(matrix.Identity[algebras.NatInf](alg, n), 4*n*n)
			row := RateRow{Algebra: "shortest-paths (distributive)", Graph: "line", N: n, CleanRounds: clean}
			// From arbitrary states the infinite carrier may count to
			// infinity, so the worst-case sweep uses consistent random
			// starts: sub-paths of the line.
			worst := clean
			for trial := 0; trial < trialsPerSize; trial++ {
				start := matrix.RandomStateFrom(rng, n, []algebras.NatInf{0, 1, 2, algebras.NatInf(n), algebras.Inf})
				if _, r, ok2 := eng.FixedPoint(start, 4*n*n); ok2 && r > worst {
					worst = r
				}
			}
			row.WorstRounds = worst
			row.LinearBound = ok && clean <= n
			row.QuadraticBound = worst <= n*n
			if !row.LinearBound {
				res.DistributiveLinear = false
			}
			res.Rows = append(res.Rows, row)
		}
		// (b) Strictly increasing, non-distributive: bounded hop count
		// with a filtered chord, on a ring.
		{
			alg := algebras.HopCount{Limit: algebras.NatInf(2 * n)}
			g := topology.Ring(n)
			adj := topology.BuildUniform[algebras.NatInf](g, alg.AddEdge(1))
			adj.SetEdge(0, n/2, alg.ConditionalEdge(1, algebras.DistanceAtMost(algebras.NatInf(n/2))))
			eng := engine.New[algebras.NatInf](alg, adj, engine.Config{})
			_, clean, _ := eng.FixedPoint(matrix.Identity[algebras.NatInf](alg, n), 8*n*n)
			worst := clean
			for trial := 0; trial < trialsPerSize; trial++ {
				start := matrix.RandomStateFrom(rng, n, alg.Universe())
				if _, r, ok2 := eng.FixedPoint(start, 8*n*n); ok2 && r > worst {
					worst = r
				}
			}
			row := RateRow{
				Algebra: "rip(2n)+filter (incr, non-distr)", Graph: "ring", N: n,
				CleanRounds: clean, WorstRounds: worst,
				LinearBound:    clean <= n,
				QuadraticBound: worst <= n*n,
			}
			if !row.QuadraticBound {
				res.IncreasingQuadratic = false
			}
			res.Rows = append(res.Rows, row)
		}
		// (c) Increasing path algebra: tracked shortest paths on a clique
		// from inconsistent states (path exploration drives the rate).
		if n <= 7 {
			base := algebras.ShortestPaths{}
			alg := pathalg.New[algebras.NatInf](base)
			g := topology.Complete(n)
			baseAdj := topology.BuildUniform[algebras.NatInf](g, base.AddEdge(1))
			adj := pathalg.LiftAdjacency(alg, baseAdj)
			type R = pathalg.Route[algebras.NatInf]
			eng := engine.New[R](alg, adj, engine.Config{})
			_, clean, _ := eng.FixedPoint(matrix.Identity[R](alg, n), 8*n*n)
			worst := clean
			gen := func(rng *rand.Rand, _, _ int) R {
				if rng.Intn(5) == 0 {
					return alg.Invalid()
				}
				perm := rng.Perm(n)
				return R{Base: algebras.NatInf(rng.Intn(n)), Path: paths.FromNodes(perm[:1+rng.Intn(n-1)]...)}
			}
			for trial := 0; trial < trialsPerSize; trial++ {
				start := matrix.RandomState(rng, n, gen)
				if _, r, ok2 := eng.FixedPoint(start, 8*n*n); ok2 && r > worst {
					worst = r
				}
			}
			row := RateRow{
				Algebra: "path-vector shortest (increasing)", Graph: "clique", N: n,
				CleanRounds: clean, WorstRounds: worst,
				LinearBound:    clean <= n,
				QuadraticBound: worst <= n*n,
			}
			if !row.QuadraticBound {
				res.IncreasingQuadratic = false
			}
			res.Rows = append(res.Rows, row)
		}
	}

	tw := newTab(w)
	fmt.Fprintf(tw, "algebra\tgraph\tn\tclean rounds\tworst rounds\t≤n\t≤n²\n")
	for _, r := range res.Rows {
		fmt.Fprintf(tw, "%s\t%s\t%d\t%d\t%d\t%s\t%s\n",
			r.Algebra, r.Graph, r.N, r.CleanRounds, r.WorstRounds,
			pass(r.LinearBound), pass(r.QuadraticBound))
	}
	tw.Flush()
	fmt.Fprintf(w, "distributive family met the classical O(n) bound:  %s\n", pass(res.DistributiveLinear))
	fmt.Fprintf(w, "increasing families met the paper's O(n²) bound:   %s\n", pass(res.IncreasingQuadratic))
	return res
}
