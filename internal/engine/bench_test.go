package engine_test

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/algebras"
	"repro/internal/async"
	"repro/internal/engine"
	"repro/internal/matrix"
	"repro/internal/schedule"
	"repro/internal/topology"
)

// benchNet is a hop-count ring of n nodes with chords every 8 hops —
// sparse, like the topologies the paper's experiments run on.
func benchNet(n int) (algebras.HopCount, *matrix.Adjacency[algebras.NatInf]) {
	alg := algebras.HopCount{Limit: algebras.NatInf(2 * n)}
	g := topology.Ring(n)
	adj := topology.BuildUniform[algebras.NatInf](g, alg.AddEdge(1))
	for i := 0; i < n; i += 8 {
		j := (i + n/2) % n
		if i != j {
			adj.SetEdge(i, j, alg.AddEdge(2))
			adj.SetEdge(j, i, alg.AddEdge(2))
		}
	}
	return alg, adj
}

// BenchmarkEngineDelta evaluates δ on a convergence-tail workload —
// horizon 4n, so once routes settle the remaining steps are pure
// redundancy the change-driven engine skips, and the run terminates at
// the certified fixed point (the sources are Fair). The cells/op metric
// is Stats.CellsComputed; full recomputation would cost n cells for each
// of the computed and skipped activations.
//
// n ≤ 512 use the lazy Hashed source (a materialised schedule at n = 512
// would need ~400 MB of β tables); n = 2048 uses RoundRobin, whose
// single-activation steps are exactly the small-active-set regime the
// persistent worker pool and O(deg) row skips target.
func BenchmarkEngineDelta(b *testing.B) {
	for _, n := range []int{32, 128, 512, 2048} {
		var (
			alg algebras.HopCount
			adj *matrix.Adjacency[algebras.NatInf]
			src engine.Source
		)
		if n <= 512 {
			alg, adj = benchNet(n)
			src = engine.Hashed{N: n, T: 4 * n, Seed: 1, MaxGap: 16, MaxStaleness: 8}
		} else {
			// A round-robin sweep propagates descending-index chains one
			// hop per cycle, so the chord ring would still be converging
			// at any affordable horizon; the small-diameter random graph
			// converges in a few cycles and leaves a genuine tail.
			alg = algebras.HopCount{Limit: algebras.NatInf(2 * n)}
			g := topology.ErdosRenyi(rand.New(rand.NewSource(9)), n, 8/float64(n))
			adj = topology.BuildUniform[algebras.NatInf](g, alg.AddEdge(1))
			// The horizon is deliberately deep: the run's cost is fixed at
			// convergence + certification however far T reaches.
			src = engine.RoundRobin{N: n, T: 16 * n}
		}
		start := matrix.Identity[algebras.NatInf](alg, n)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			eng := engine.New[algebras.NatInf](alg, adj, engine.Config{})
			defer eng.Close()
			b.ReportAllocs()
			b.ResetTimer()
			var cells, skipped int
			for i := 0; i < b.N; i++ {
				res := eng.Run(start, src)
				if res.Final() == nil {
					b.Fatal("no result")
				}
				st := res.Stats()
				cells += st.CellsComputed
				skipped += st.RowsSkipped
			}
			b.ReportMetric(float64(cells)/float64(b.N), "cells/op")
			b.ReportMetric(float64(skipped)/float64(b.N), "skips/op")
		})
	}
	// The materialised random schedule shared with BenchmarkLegacyDelta,
	// so allocs/op stay directly comparable with the reference evaluator.
	for _, n := range []int{32, 128} {
		b.Run(fmt.Sprintf("recorded/n=%d", n), func(b *testing.B) {
			alg, adj := benchNet(n)
			start := matrix.Identity[algebras.NatInf](alg, n)
			sched := benchSchedule(n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res := engine.Run[algebras.NatInf](alg, adj, start, sched)
				if res.Final() == nil {
					b.Fatal("no result")
				}
			}
		})
	}
}

// BenchmarkEngineWorstCase is the adversarial workload for change
// tracking: σ on a clique, where round one changes every cell (so nothing can be
// skipped and every dirty set is full) and the horizon stops right at the
// fixed point (so there is no tail to win back). This bounds the overhead
// of dirty tracking — ver scans, per-cell compares, bitset upkeep — on
// steps where it cannot help.
func BenchmarkEngineWorstCase(b *testing.B) {
	n := 192
	alg := algebras.HopCount{Limit: algebras.NatInf(2 * n)}
	adj := topology.BuildUniform[algebras.NatInf](topology.Complete(n), alg.AddEdge(1))
	start := matrix.Identity[algebras.NatInf](alg, n)
	eng := engine.New[algebras.NatInf](alg, adj, engine.Config{})
	defer eng.Close()
	src := march(engine.Synchronous{N: n, T: 2})
	b.ReportAllocs()
	b.ResetTimer()
	var cells int
	for i := 0; i < b.N; i++ {
		res := eng.Run(start, src)
		cells += res.Stats().CellsComputed
	}
	b.ReportMetric(float64(cells)/float64(b.N), "cells/op")
}

// BenchmarkEngineWorkers is the worker pool's own number: the E5 run
// (hop count on the chord ring, Hashed over horizon 10n) at n = 512 and
// n = 128, sequential against the default pool. fanouts/op counts the
// steps handed to the pool and hot_handoffs/op the helper hand-offs among
// them that found the helper still polling — no channel, no futex.
func BenchmarkEngineWorkers(b *testing.B) {
	for _, n := range []int{512, 128} {
		alg, adj := benchNet(n)
		start := matrix.Identity[algebras.NatInf](alg, n)
		src := engine.Hashed{N: n, T: 10 * n, Seed: 1, MaxGap: 16, MaxStaleness: 8}
		for _, w := range []struct {
			name    string
			workers int
		}{{"w=1", 1}, {"w=default", 0}} {
			b.Run(fmt.Sprintf("n=%d/%s", n, w.name), func(b *testing.B) {
				eng := engine.New[algebras.NatInf](alg, adj, engine.Config{Workers: w.workers})
				defer eng.Close()
				eng.Run(start, src) // warm the run scratch
				_, fan0, hot0 := engine.PoolCounters(eng)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, ok := eng.Run(start, src).Converged(); !ok {
						b.Fatal("run did not certify convergence")
					}
				}
				_, fan, hot := engine.PoolCounters(eng)
				b.ReportMetric(float64(fan-fan0)/float64(b.N), "fanouts/op")
				b.ReportMetric(float64(hot-hot0)/float64(b.N), "hot_handoffs/op")
			})
		}
	}
}

// BenchmarkLegacyDelta is the clone-everything reference evaluator on the
// same schedules, the baseline the engine's copy-on-write and recycling
// are measured against.
func BenchmarkLegacyDelta(b *testing.B) {
	for _, n := range []int{32, 128} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			alg, adj := benchNet(n)
			start := matrix.Identity[algebras.NatInf](alg, n)
			sched := benchSchedule(n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				h := async.RunReference[algebras.NatInf](alg, adj, start, sched)
				if h[len(h)-1] == nil {
					b.Fatal("no result")
				}
			}
		})
	}
}

// benchSchedule draws the shared materialised schedule: horizon 2n,
// half the nodes active per step, β up to 8 steps stale.
func benchSchedule(n int) *schedule.Schedule {
	rng := rand.New(rand.NewSource(int64(n)))
	return schedule.Random(rng, n, 2*n, schedule.Options{MaxGap: 16, MaxStaleness: 8})
}

// BenchmarkEngineSigma measures one sharded synchronous round against the
// sequential matrix.Sigma baseline.
func BenchmarkEngineSigma(b *testing.B) {
	for _, n := range []int{128, 512} {
		alg, adj := benchNet(n)
		x := matrix.Identity[algebras.NatInf](alg, n)
		eng := engine.New[algebras.NatInf](alg, adj, engine.Config{})
		out := matrix.NewState(n, alg.Invalid())
		b.Run(fmt.Sprintf("sharded/n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				eng.SigmaInto(x, out)
			}
		})
		b.Run(fmt.Sprintf("sequential/n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if matrix.Sigma[algebras.NatInf](alg, adj, x) == nil {
					b.Fatal("nil")
				}
			}
		})
	}
}

// BenchmarkEventRecompute measures the incremental cost of one mid-run
// fault: from a σ-converged start on the n = 512 bench topology, a
// timeline fails one link and the engine reconverges. cells/op is the
// full run's σ-cell count; eventcells/op subtracts an event-free
// baseline run from the same start, isolating what the single link
// failure made the engine recompute — the per-event recompute cost the
// scenario layer (internal/scenario) rides on.
func BenchmarkEventRecompute(b *testing.B) {
	const n = 512
	alg, adj := benchNet(n)
	start, _, ok := matrix.FixedPoint[algebras.NatInf](alg, adj, matrix.Identity[algebras.NatInf](alg, n), 4*n)
	if !ok {
		b.Fatal("bench topology did not converge")
	}
	src := engine.Hashed{N: n, T: 4096, Seed: 1, MaxGap: 16, MaxStaleness: 8}

	run := func(adj *matrix.Adjacency[algebras.NatInf], events []engine.TimelineEvent[algebras.NatInf]) int {
		eng := engine.New[algebras.NatInf](alg, adj, engine.Config{})
		defer eng.Close()
		res := playTimeline(b, eng, start, src, events)
		if _, converged := res.Converged(); !converged {
			b.Fatal("run did not certify convergence")
		}
		return res.Stats().CellsComputed
	}

	baseline := run(adj.Clone(), nil)

	events := func() []engine.TimelineEvent[algebras.NatInf] {
		return []engine.TimelineEvent[algebras.NatInf]{{
			Step: 8,
			Mutate: func(a *matrix.Adjacency[algebras.NatInf]) {
				a.RemoveEdge(2, 3)
				a.RemoveEdge(3, 2)
			},
			Rows: []int{2, 3},
		}}
	}

	var cells int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cells += run(adj.Clone(), events())
	}
	b.ReportMetric(float64(cells)/float64(b.N), "cells/op")
	b.ReportMetric(float64(cells-b.N*baseline)/float64(b.N), "eventcells/op")
}
