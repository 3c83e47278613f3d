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
	"repro/internal/schedule"
	"repro/internal/simulate"
	"repro/internal/stats"
)

// ConvergenceRow is one (scenario, engine) outcome of the E5/E6
// experiments.
type ConvergenceRow struct {
	Scenario  string
	Trials    int
	Converged int
	// UniqueLimit reports whether every converged trial reached the same
	// σ fixed point.
	UniqueLimit bool
	// OK reports whether the row behaved as the theory predicts (for the
	// count-to-infinity control rows, the prediction is NON-convergence).
	OK bool
}

// ConvergenceResult aggregates convergence sweeps.
type ConvergenceResult struct {
	Rows []ConvergenceRow
}

// AllOK reports whether every row converged on every trial to the unique
// limit.
func (r ConvergenceResult) AllOK() bool {
	for _, row := range r.Rows {
		if !row.OK {
			return false
		}
	}
	return true
}

// DistanceVector is experiment E5 (Theorem 7): the finite strictly
// increasing distance-vector algebra (RIP-16 with conditional filtering)
// converges absolutely — from arbitrary states, under hostile schedules,
// under loss/duplication/reordering — always to the same fixed point.
func DistanceVector(w io.Writer, trials int) ConvergenceResult {
	section(w, "E5 (§4, Theorem 7)", "distance-vector absolute convergence")
	alg, adj := ripRing()
	want, _, _ := matrix.FixedPoint[algebras.NatInf](alg, adj, matrix.Identity[algebras.NatInf](alg, 4), 100)
	rng := rand.New(rand.NewSource(501))
	var res ConvergenceResult

	// Sweep 1: δ under random schedules from random states.
	row := ConvergenceRow{Scenario: "δ, random schedules, random states", Trials: trials, UniqueLimit: true}
	for i := 0; i < trials; i++ {
		start := matrix.RandomStateFrom(rng, 4, alg.Universe())
		sched := schedule.Random(rng, 4, 300, schedule.Options{MaxGap: 8, MaxStaleness: 10})
		final := engine.Run[algebras.NatInf](alg, adj, start, sched).Final()
		if final.Equal(alg, want) {
			row.Converged++
		} else {
			row.UniqueLimit = false
		}
	}
	row.OK = row.Converged == row.Trials && row.UniqueLimit
	res.Rows = append(res.Rows, row)

	// Sweep 1b: δ under fair lazy schedules with early termination — the
	// engine certifies the fixed point and reports the asynchronous
	// convergence time directly, instead of grinding to the horizon and
	// checking afterwards.
	row = ConvergenceRow{Scenario: "δ, fair hashed schedules, early-terminated", Trials: trials, UniqueLimit: true}
	var convAt stats.Sample
	for i := 0; i < trials; i++ {
		start := matrix.RandomStateFrom(rng, 4, alg.Universe())
		src := engine.Hashed{N: 4, T: 600, Seed: uint64(8100 + i), MaxGap: 8, MaxStaleness: 6}
		out := engine.Run[algebras.NatInf](alg, adj, start, src)
		at, certified := out.Converged()
		if certified && out.Final().Equal(alg, want) {
			row.Converged++
			convAt.AddInt(int64(at))
		} else {
			row.UniqueLimit = false
		}
	}
	row.OK = row.Converged == row.Trials && row.UniqueLimit
	row.Scenario += " (certified t: " + convAt.Summary() + ")"
	res.Rows = append(res.Rows, row)

	// Sweep 2: event simulator with heavy faults, with the
	// convergence-time distribution.
	row = ConvergenceRow{Scenario: "simulator, 30% loss + 20% dup + reorder", Trials: trials, UniqueLimit: true}
	var times stats.Sample
	for i := 0; i < trials; i++ {
		start := matrix.RandomStateFrom(rng, 4, alg.Universe())
		out := simulate.Run[algebras.NatInf](alg, adj, start, simulate.Config{
			Seed: int64(9000 + i), LossProb: 0.3, DupProb: 0.2, MaxDelay: 20,
		}, nil)
		if out.Converged && out.Final.Equal(alg, want) {
			row.Converged++
			times.AddInt(out.ConvergedAt)
		} else {
			row.UniqueLimit = false
		}
	}
	row.OK = row.Converged == row.Trials && row.UniqueLimit
	row.Scenario += " (t: " + times.Summary() + ")"
	res.Rows = append(res.Rows, row)

	// Sweep 3: simulator with mid-run node restarts (Section 3.2).
	row = ConvergenceRow{Scenario: "simulator, node restarts with garbage", Trials: trials, UniqueLimit: true}
	u := alg.Universe()
	gen := func(rng *rand.Rand) algebras.NatInf { return u[rng.Intn(len(u))] }
	restartAt := func(t int64, i int) simulate.Event[algebras.NatInf] {
		return simulate.Event[algebras.NatInf]{Time: t, Apply: func(s *simulate.Sim[algebras.NatInf]) { s.RestartNode(i) }}
	}
	for i := 0; i < trials; i++ {
		out := simulate.Run[algebras.NatInf](alg, adj, matrix.Identity[algebras.NatInf](alg, 4), simulate.Config{
			Seed: int64(9500 + i), LossProb: 0.1,
		}, gen, restartAt(50, i%4), restartAt(150, (i+2)%4))
		if out.Converged && out.Final.Equal(alg, want) {
			row.Converged++
		} else {
			row.UniqueLimit = false
		}
	}
	row.OK = row.Converged == row.Trials && row.UniqueLimit
	res.Rows = append(res.Rows, row)

	printConvergence(w, res)
	return res
}

// PathVector is experiment E6 (Theorem 11): path tracking rescues the
// infinite-carrier shortest-paths algebra. It contrasts three protocols on
// the same stale-state scenario (an edge has vanished; a node still holds
// a route through it):
//
//   - plain distance-vector shortest paths counts to infinity;
//   - RIP-16 counts up to its limit and then recovers (slowly);
//   - the path-vector protocol flushes the stale path in a handful of
//     rounds (its loop detection makes the algebra strictly increasing).
func PathVector(w io.Writer, trials int) ConvergenceResult {
	section(w, "E6 (§5, Theorem 11)", "path-vector rescue of count-to-infinity")
	var res ConvergenceResult

	// Scenario: line 0—1 with node 2 disconnected; stale routes claim 2
	// is reachable.
	base := algebras.ShortestPaths{}
	plainAdj := matrix.NewAdjacency[algebras.NatInf](3)
	plainAdj.SetEdge(0, 1, base.AddEdge(1))
	plainAdj.SetEdge(1, 0, base.AddEdge(1))
	stale := matrix.Identity[algebras.NatInf](base, 3)
	stale.Set(1, 2, 1)

	_, rounds, ok := matrix.FixedPoint[algebras.NatInf](base, plainAdj, stale, 256)
	res.Rows = append(res.Rows, ConvergenceRow{
		Scenario:    fmt.Sprintf("plain DV shortest paths (still counting after %d rounds)", rounds),
		Trials:      1,
		Converged:   boolToInt(ok),
		UniqueLimit: false,
		OK:          !ok, // the theory predicts NON-convergence here
	})

	rip := algebras.HopCount{Limit: 15}
	ripAdj := matrix.NewAdjacency[algebras.NatInf](3)
	ripAdj.SetEdge(0, 1, rip.AddEdge(1))
	ripAdj.SetEdge(1, 0, rip.AddEdge(1))
	ripStale := matrix.Identity[algebras.NatInf](rip, 3)
	ripStale.Set(1, 2, 1)
	_, ripRounds, ripOK := matrix.FixedPoint[algebras.NatInf](rip, ripAdj, ripStale, 256)
	res.Rows = append(res.Rows, ConvergenceRow{
		Scenario:    fmt.Sprintf("RIP-16 (converged in %d rounds by counting to 16)", ripRounds),
		Trials:      1,
		Converged:   boolToInt(ripOK),
		UniqueLimit: ripOK,
		OK:          ripOK,
	})

	alg := pathalg.New[algebras.NatInf](base)
	pvAdj := pathalg.LiftAdjacency(alg, plainAdj)
	type R = pathalg.Route[algebras.NatInf]
	pvStale := matrix.Identity[R](alg, 3)
	pvStale.Set(1, 2, R{Base: 1, Path: paths.FromNodes(1, 2)})
	_, pvRounds, pvOK := matrix.FixedPoint[R](alg, pvAdj, pvStale, 256)
	res.Rows = append(res.Rows, ConvergenceRow{
		Scenario:    fmt.Sprintf("path vector (flushed the stale path in %d rounds)", pvRounds),
		Trials:      1,
		Converged:   boolToInt(pvOK),
		UniqueLimit: pvOK,
		OK:          pvOK && pvRounds <= 8,
	})

	// Absolute convergence of the PV ring from inconsistent states under
	// δ and the simulator.
	pvAlg, ringAdj := pvRing()
	want, _, _ := matrix.FixedPoint[R](pvAlg, ringAdj, matrix.Identity[R](pvAlg, 4), 200)
	rng := rand.New(rand.NewSource(601))
	gen := func(rng *rand.Rand, _, _ int) R {
		if rng.Intn(5) == 0 {
			return pvAlg.Invalid()
		}
		perm := rng.Perm(4)
		return R{Base: algebras.NatInf(rng.Intn(6)), Path: paths.FromNodes(perm[:1+rng.Intn(3)]...)}
	}
	row := ConvergenceRow{Scenario: "PV ring: δ from inconsistent states", Trials: trials, UniqueLimit: true}
	for i := 0; i < trials; i++ {
		start := matrix.RandomState(rng, 4, gen)
		sched := schedule.Adversarial(rng, 4, 500, 10, 12)
		if engine.Run[R](pvAlg, ringAdj, start, sched).Final().Equal(pvAlg, want) {
			row.Converged++
		} else {
			row.UniqueLimit = false
		}
	}
	row.OK = row.Converged == row.Trials && row.UniqueLimit
	res.Rows = append(res.Rows, row)

	row = ConvergenceRow{Scenario: "PV ring: simulator, faults + inconsistent states", Trials: trials, UniqueLimit: true}
	for i := 0; i < trials; i++ {
		rng2 := rand.New(rand.NewSource(int64(700 + i)))
		start := matrix.RandomState(rng2, 4, gen)
		out := simulate.Run[R](pvAlg, ringAdj, start, simulate.Config{
			Seed: int64(700 + i), LossProb: 0.25, DupProb: 0.15, MaxDelay: 15,
		}, nil)
		if out.Converged && out.Final.Equal(pvAlg, want) {
			row.Converged++
		} else {
			row.UniqueLimit = false
		}
	}
	row.OK = row.Converged == row.Trials && row.UniqueLimit
	res.Rows = append(res.Rows, row)

	printConvergence(w, res)
	return res
}

func boolToInt(b bool) int {
	if b {
		return 1
	}
	return 0
}

func printConvergence(w io.Writer, res ConvergenceResult) {
	tw := newTab(w)
	fmt.Fprintf(tw, "scenario\tconverged\tunique limit\tas predicted\n")
	for _, row := range res.Rows {
		fmt.Fprintf(tw, "%s\t%d/%d\t%s\t%s\n", row.Scenario, row.Converged, row.Trials, pass(row.UniqueLimit), pass(row.OK))
	}
	tw.Flush()
}
