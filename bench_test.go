// Package repro's root benchmark harness: one testing.B benchmark per
// table and figure of the paper.
// Each benchmark regenerates the artefact end-to-end, so -bench times the
// cost of reproducing it; correctness is asserted inside every iteration.
package repro_test

import (
	"io"
	"testing"

	"repro/internal/algebras"
	"repro/internal/engine"
	"repro/internal/expr"
	"repro/internal/matrix"
	"repro/internal/pathalg"
	"repro/internal/topology"
	"repro/internal/ultrametric"
)

// BenchmarkTable1PropertyChecks regenerates the E1 property matrix.
func BenchmarkTable1PropertyChecks(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := expr.Table1(io.Discard)
		if len(res.Rows) == 0 {
			b.Fatal("empty matrix")
		}
	}
}

// BenchmarkTable2Algebras regenerates the E2 solved-algebra table.
func BenchmarkTable2Algebras(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := expr.Table2(io.Discard)
		for _, row := range res.Rows {
			if !row.LawsOK {
				b.Fatal("law failure")
			}
		}
	}
}

// BenchmarkFigure1Pipeline executes the E3 implication chain.
func BenchmarkFigure1Pipeline(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if !expr.Figure1(io.Discard, 10).AllOK() {
			b.Fatal("pipeline broke")
		}
	}
}

// BenchmarkFigure2Ultrametrics regenerates the E4 distance chains.
func BenchmarkFigure2Ultrametrics(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if !expr.Figure2(io.Discard).OK {
			b.Fatal("chain malformed")
		}
	}
}

// BenchmarkDVConvergence runs the E5 distance-vector sweeps.
func BenchmarkDVConvergence(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if !expr.DistanceVector(io.Discard, 6).AllOK() {
			b.Fatal("E5 failed")
		}
	}
}

// BenchmarkPVConvergence runs the E6 path-vector sweeps.
func BenchmarkPVConvergence(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if !expr.PathVector(io.Discard, 5).AllOK() {
			b.Fatal("E6 failed")
		}
	}
}

// BenchmarkPolicyAlgebra runs the E7 safe-by-design fuzz.
func BenchmarkPolicyAlgebra(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if !expr.SafeByDesign(io.Discard, 100, 3).OK() {
			b.Fatal("E7 failed")
		}
	}
}

// BenchmarkGadgets runs the E8 anomaly suite.
func BenchmarkGadgets(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if !expr.Anomalies(io.Discard, 4).AllOK() {
			b.Fatal("E8 failed")
		}
	}
}

// BenchmarkGaoRexford runs the E9 embedding experiment.
func BenchmarkGaoRexford(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if !expr.GaoRexford(io.Discard, 4).OK() {
			b.Fatal("E9 failed")
		}
	}
}

// BenchmarkConvergenceRate runs the E10 rounds-vs-n sweep.
func BenchmarkConvergenceRate(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := expr.ConvergenceRate(io.Discard, []int{4, 6, 8}, 4)
		if !res.DistributiveLinear || !res.IncreasingQuadratic {
			b.Fatal("E10 bound violated")
		}
	}
}

// e5Scenario builds the E5 production-scale instance shared by
// BenchmarkE5EngineConvergence and the CI allocation gate
// (TestE5EngineAllocGate): distance-vector absolute convergence at
// n = 512 over a fair pseudo-random schedule.
func e5Scenario() (algebras.HopCount, *matrix.Adjacency[algebras.NatInf], *matrix.State[algebras.NatInf], engine.Hashed) {
	const n = 512
	alg := algebras.HopCount{Limit: algebras.NatInf(2 * n)}
	g := topology.Ring(n)
	adj := topology.BuildUniform[algebras.NatInf](g, alg.AddEdge(1))
	for i := 0; i < n; i += 8 {
		if j := (i + n/2) % n; j != i {
			adj.SetEdge(i, j, alg.AddEdge(2))
			adj.SetEdge(j, i, alg.AddEdge(2))
		}
	}
	start := matrix.Identity[algebras.NatInf](alg, n)
	src := engine.Hashed{N: n, T: 10 * n, Seed: 5, MaxGap: 16, MaxStaleness: 8}
	return alg, adj, start, src
}

// BenchmarkE5EngineConvergence is the E5 scenario at production scale on
// the hot path: distance-vector absolute convergence at n = 512, run
// through the incremental δ engine over a fair pseudo-random schedule.
// The run must certify convergence (early termination) and land on a
// σ-stable state; cells/op exposes the change-driven engine's
// output-sensitive cost on the paper-artefact harness. Allocations
// amortise towards zero with b.N: the first run populates the engine's
// pooled scratch and subsequent runs reuse it.
func BenchmarkE5EngineConvergence(b *testing.B) {
	alg, adj, start, src := e5Scenario()
	eng := engine.New[algebras.NatInf](alg, adj, engine.Config{})
	defer eng.Close()
	b.ReportAllocs()
	b.ResetTimer()
	var cells int
	for i := 0; i < b.N; i++ {
		res := eng.Run(start, src)
		if _, ok := res.Converged(); !ok {
			b.Fatal("E5 engine run did not certify convergence")
		}
		if !matrix.IsStable[algebras.NatInf](alg, adj, res.Final()) {
			b.Fatal("E5 engine limit is not σ-stable")
		}
		cells += res.Stats().CellsComputed
	}
	b.ReportMetric(float64(cells)/float64(b.N), "cells/op")
}

// BenchmarkAsyncEngines runs the E12 three-substrate equivalence.
func BenchmarkAsyncEngines(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if !expr.AsyncEquivalence(io.Discard, 4).OK() {
			b.Fatal("E12 failed")
		}
	}
}

// BenchmarkBisimulation runs the E13 hierarchical-path bisimulation.
func BenchmarkBisimulation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if !expr.Bisimulation(io.Discard, 8).OK() {
			b.Fatal("E13 failed")
		}
	}
}

// BenchmarkDynamicTopologies runs the E14 flap/partition/epoch suite.
func BenchmarkDynamicTopologies(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if !expr.Dynamic(io.Discard, 10).OK() {
			b.Fatal("E14 failed")
		}
	}
}

// BenchmarkOrbitChains measures the E11 Lemma 2 chain construction on a
// larger network.
func BenchmarkOrbitChains(b *testing.B) {
	alg := algebras.HopCount{Limit: 15}
	g := topology.Ring(8)
	adj := topology.BuildUniform[algebras.NatInf](g, alg.AddEdge(1))
	m := ultrametric.NewDV[algebras.NatInf](alg, alg.Universe())
	start := matrix.NewState[algebras.NatInf](8, 5)
	for i := 0; i < 8; i++ {
		start.Set(i, i, 0)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		chain := ultrametric.OrbitDistances[algebras.NatInf](alg, adj, m, start, 200)
		if len(chain) == 0 || chain[len(chain)-1] != 0 {
			b.Fatal("chain did not terminate at 0")
		}
	}
}

// BenchmarkSigmaRound measures one synchronous round on a 32-node random
// graph — the inner loop every experiment leans on.
func BenchmarkSigmaRound(b *testing.B) {
	alg := algebras.ShortestPaths{}
	g := topology.Grid(8, 4)
	adj := topology.BuildUniform[algebras.NatInf](g, alg.AddEdge(1))
	x := matrix.Identity[algebras.NatInf](alg, g.N)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x = matrix.Sigma[algebras.NatInf](alg, adj, x)
	}
}

// BenchmarkPathVectorSigma measures one σ round with full path tracking.
func BenchmarkPathVectorSigma(b *testing.B) {
	base := algebras.ShortestPaths{}
	alg := pathalg.New[algebras.NatInf](base)
	g := topology.Ring(12)
	baseAdj := topology.BuildUniform[algebras.NatInf](g, base.AddEdge(1))
	adj := pathalg.LiftAdjacency(alg, baseAdj)
	type R = pathalg.Route[algebras.NatInf]
	x, _, _ := matrix.FixedPoint[R](alg, adj, matrix.Identity[R](alg, g.N), 100)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		y := matrix.Sigma[R](alg, adj, x)
		if !y.Equal(alg, x) {
			b.Fatal("fixed point drifted")
		}
	}
}

// BenchmarkPathVectorSigmaInterned is BenchmarkPathVectorSigma over the
// hash-consed carrier: every Extend is a table probe, every Equal an id
// compare, so the round allocates nothing once the table is warm.
func BenchmarkPathVectorSigmaInterned(b *testing.B) {
	base := algebras.ShortestPaths{}
	alg := pathalg.NewInterned[algebras.NatInf](base, nil)
	g := topology.Ring(12)
	baseAdj := topology.BuildUniform[algebras.NatInf](g, base.AddEdge(1))
	adj := pathalg.LiftAdjacencyInterned(alg, baseAdj)
	type R = pathalg.IRoute[algebras.NatInf]
	x, _, _ := matrix.FixedPoint[R](alg, adj, matrix.Identity[R](alg, g.N), 100)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		y := matrix.Sigma[R](alg, adj, x)
		if !y.Equal(alg, x) {
			b.Fatal("fixed point drifted")
		}
	}
}

// BenchmarkPVEngineConvergence is the path-vector convergence scenario on
// the δ engine at n = 64, A/B over the route representation: "reference"
// carries []Arc paths on the interface path, "interned" carries PathIDs
// and packs, so it runs on the columnar kernels. Same schedule,
// bit-equivalent limits; the delta is the hash-consing and packing win on
// a path-aware algebra.
func BenchmarkPVEngineConvergence(b *testing.B) {
	const n = 64
	base := algebras.ShortestPaths{}
	g := topology.Ring(n)
	baseAdj := topology.BuildUniform[algebras.NatInf](g, base.AddEdge(1))
	for i := 0; i < n; i += 8 {
		if j := (i + n/2) % n; j != i {
			baseAdj.SetEdge(i, j, base.AddEdge(2))
			baseAdj.SetEdge(j, i, base.AddEdge(2))
		}
	}
	src := engine.Hashed{N: n, T: 10 * n, Seed: 5, MaxGap: 16, MaxStaleness: 8}

	b.Run("reference", func(b *testing.B) {
		alg := pathalg.New[algebras.NatInf](base)
		adj := pathalg.LiftAdjacency(alg, baseAdj)
		type R = pathalg.Route[algebras.NatInf]
		start := matrix.Identity[R](alg, n)
		eng := engine.New[R](alg, adj, engine.Config{})
		defer eng.Close()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, ok := eng.Run(start, src).Converged(); !ok {
				b.Fatal("reference run did not certify convergence")
			}
		}
	})
	b.Run("interned", func(b *testing.B) {
		alg := pathalg.NewInterned[algebras.NatInf](base, nil)
		adj := pathalg.LiftAdjacencyInterned(alg, baseAdj)
		type R = pathalg.IRoute[algebras.NatInf]
		start := matrix.Identity[R](alg, n)
		eng := engine.New[R](alg, adj, engine.Config{})
		defer eng.Close()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, ok := eng.Run(start, src).Converged(); !ok {
				b.Fatal("interned run did not certify convergence")
			}
		}
	})
}
