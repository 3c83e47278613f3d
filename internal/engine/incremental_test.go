package engine_test

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/algebras"
	"repro/internal/async"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/matrix"
	"repro/internal/schedule"
	"repro/internal/topology"
)

// The change-driven contract: skipping unchanged rows and recomputing only
// dirty columns must be invisible — the literal evaluator's states at
// every step, the same limit — while provably doing no more work than
// recomputing every activated row in full, and fair runs must stop at the
// certified fixed point.

// incrementalNet is the convergence-tail workload: a hop-count ring with
// chords every 8 nodes, the benchmark topology at test scale.
func incrementalNet(n int) (algebras.HopCount, *matrix.Adjacency[algebras.NatInf]) {
	alg := algebras.HopCount{Limit: algebras.NatInf(2 * n)}
	adj := matrix.NewAdjacency[algebras.NatInf](n)
	link := func(i, j int, w algebras.NatInf) {
		adj.SetEdge(i, j, alg.AddEdge(w))
		adj.SetEdge(j, i, alg.AddEdge(w))
	}
	for i := 0; i < n; i++ {
		link(i, (i+1)%n, 1)
	}
	for i := 0; i < n; i += 8 {
		if j := (i + n/2) % n; j != i {
			link(i, j, 2)
		}
	}
	return alg, adj
}

// TestIncrementalMatchesFull holds the change-driven engine to
// bit-identity with the literal reference evaluator at every step of every
// kind of schedule, including with the fan-out forced on, across the
// three equivalence algebras, and to the closed-form work bounds.
func TestIncrementalMatchesFull(t *testing.T) {
	nets := []struct {
		name string
		run  func(t *testing.T, cfg engine.Config, shard bool)
	}{
		{"hopcount", func(t *testing.T, cfg engine.Config, shard bool) {
			alg, adj, u := hopNet()
			diffIncrementalFull(t, alg, adj, u, cfg, shard)
		}},
		{"lex", func(t *testing.T, cfg engine.Config, shard bool) {
			alg, adj, u := lexNet()
			diffIncrementalFull(t, alg, adj, u, cfg, shard)
		}},
		{"gaorexford", func(t *testing.T, cfg engine.Config, shard bool) {
			alg, adj, u := grNet()
			diffIncrementalFull(t, alg, adj, u, cfg, shard)
		}},
	}
	configs := []struct {
		name  string
		cfg   engine.Config
		shard bool // fan every step out, however small the network
	}{
		{"sequential", engine.Config{Workers: 1}, false},
		{"sharded", engine.Config{Workers: 8}, true},
	}
	for _, nt := range nets {
		for _, cfg := range configs {
			t.Run(nt.name+"/"+cfg.name, func(t *testing.T) {
				nt.run(t, cfg.cfg, cfg.shard)
			})
		}
	}
}

// diffIncrementalFull steps an engine run one step at a time against
// async.RunReference, state by state, on whichever row representation the
// algebra takes. Full recomputation evaluates n cells for each of the
// schedule's Σ_t |α(t)| activations; the engine must account for every
// activation as computed or skipped, and evaluate no more cells than that.
func diffIncrementalFull[R any](
	t *testing.T, alg core.Algebra[R], adj *matrix.Adjacency[R], universe []R, cfg engine.Config, shard bool,
) {
	rng := rand.New(rand.NewSource(77))
	n := adj.N
	mk := engine.New[R]
	if shard {
		mk = engine.NewSharded[R]
	}
	eng := mk(alg, adj, cfg)
	defer eng.Close()
	for trial := 0; trial < 6; trial++ {
		start := matrix.RandomStateFrom(rng, n, universe)
		var sched *schedule.Schedule
		if trial%2 == 0 {
			sched = schedule.Random(rng, n, 150, schedule.Options{MaxGap: 8, MaxStaleness: 7})
		} else {
			sched = schedule.Adversarial(rng, n, 150, 9, 6)
		}
		ref := async.RunReference(alg, adj, start, sched)
		res := stepAgainst(t, fmt.Sprintf("trial %d", trial), mustStart(t, eng, start, sched, nil), ref)
		activations := 0
		for tt := 1; tt <= sched.T; tt++ {
			for i := 0; i < n; i++ {
				if sched.Active(tt, i) {
					activations++
				}
			}
		}
		st := res.Stats()
		if st.RowsSkipped+st.RowsComputed != activations {
			t.Fatalf("trial %d: skipped %d + computed %d rows, schedule has %d activations — activations were lost",
				trial, st.RowsSkipped, st.RowsComputed, activations)
		}
		if st.CellsComputed > n*activations {
			t.Fatalf("trial %d: computed %d cells, full recomputation only %d — change tracking is not monotone",
				trial, st.CellsComputed, n*activations)
		}
	}
}

// TestIncrementalComputesNoMoreCells is the CI monotonicity gate: on the
// benchmark convergence-tail workload the engine must never evaluate more
// σ-cells than full recomputation — n per activation — would, and on a
// genuine tail it must evaluate far fewer (≥ 5× at n = 512, the headline
// acceptance number).
func TestIncrementalComputesNoMoreCells(t *testing.T) {
	n := 512
	if testing.Short() {
		n = 128
	}
	alg, adj := incrementalNet(n)
	start := matrix.Identity[algebras.NatInf](alg, n)
	src := engine.Hashed{N: n, T: 4 * n, Seed: 7, MaxGap: 16, MaxStaleness: 8}

	want, _, ok := matrix.FixedPoint[algebras.NatInf](alg, adj, start, 4*n)
	if !ok {
		t.Fatal("σ must converge on the test net")
	}
	inc := engine.Run[algebras.NatInf](alg, adj, start, march(src))
	incStop := engine.New[algebras.NatInf](alg, adj, engine.Config{}).Run(start, src)

	identicalStates(t, "full-horizon final vs σ fixed point", inc.Final(), want)
	identicalStates(t, "early-terminated final vs σ fixed point", incStop.Final(), want)

	si, ss := inc.Stats(), incStop.Stats()
	full := n * (si.RowsComputed + si.RowsSkipped)
	t.Logf("full recomputation: cells=%d; change-driven: cells=%d rows=%d skipped=%d; +early-exit: cells=%d steps=%d converged@%d",
		full, si.CellsComputed, si.RowsComputed, si.RowsSkipped, ss.CellsComputed, ss.Steps, ss.ConvergedAt)
	if si.CellsComputed > full {
		t.Fatalf("computed %d cells, full recomputation %d — gate violated", si.CellsComputed, full)
	}
	if full < 5*si.CellsComputed {
		t.Errorf("convergence-tail reduction only %.1f×, want ≥ 5× (full %d, change-driven %d)",
			float64(full)/float64(si.CellsComputed), full, si.CellsComputed)
	}
	if _, ok := incStop.Converged(); !ok {
		t.Error("fair hashed run over a long tail should certify convergence")
	}
}

// TestEarlyTerminationRoundRobin is the acceptance scenario: a convergent
// RoundRobin run at n = 512 with horizon 10n must return early with the
// exact σ fixed point and a ConvergedAt far below the horizon.
func TestEarlyTerminationRoundRobin(t *testing.T) {
	n := 512
	if testing.Short() {
		n = 96
	}
	// A RoundRobin sweep propagates descending-index route chains only
	// one hop per cycle, so convergence within 10 cycles needs a
	// small-diameter graph: a sparse random graph with average degree 8.
	alg := algebras.HopCount{Limit: algebras.NatInf(2 * n)}
	g := topology.ErdosRenyi(rand.New(rand.NewSource(42)), n, 8/float64(n))
	adj := topology.BuildUniform[algebras.NatInf](g, alg.AddEdge(1))
	start := matrix.Identity[algebras.NatInf](alg, n)
	want, _, ok := matrix.FixedPoint[algebras.NatInf](alg, adj, start, 4*n)
	if !ok {
		t.Fatal("σ must converge on the test net")
	}
	horizon := 10 * n
	res := engine.Run[algebras.NatInf](alg, adj, start, engine.RoundRobin{N: n, T: horizon})
	at, converged := res.Converged()
	if !converged {
		t.Fatalf("round-robin run did not certify convergence within T=%d", horizon)
	}
	if res.Stats().Steps >= horizon {
		t.Fatalf("run used all %d steps; early termination did not fire", horizon)
	}
	if at > horizon/2 {
		t.Errorf("ConvergedAt = %d, want ≪ horizon %d", at, horizon)
	}
	identicalStates(t, "round-robin limit", res.Final(), want)
	t.Logf("n=%d: converged at t=%d, stopped at t=%d of %d (skipped %d rows, computed %d cells)",
		n, at, res.Stats().Steps, horizon, res.Stats().RowsSkipped, res.Stats().CellsComputed)
}

// TestFixedPointIncrementalMatchesMatrix pins Engine.FixedPoint (a δ run
// under the Synchronous source with convergence certification) to
// matrix.FixedPoint exactly: same state, same round count, same verdict —
// including the degenerate already-fixed and did-not-converge cases.
func TestFixedPointIncrementalMatchesMatrix(t *testing.T) {
	alg, adj, u := hopNet()
	rng := rand.New(rand.NewSource(3))
	eng := engine.New[algebras.NatInf](alg, adj, engine.Config{})
	for trial := 0; trial < 20; trial++ {
		start := matrix.RandomStateFrom(rng, adj.N, u)
		for _, maxRounds := range []int{0, 1, 2, 3, 50} {
			wantX, wantR, wantOK := matrix.FixedPoint[algebras.NatInf](alg, adj, start, maxRounds)
			gotX, gotR, gotOK := eng.FixedPoint(start, maxRounds)
			if gotR != wantR || gotOK != wantOK {
				t.Fatalf("trial %d maxRounds %d: got (rounds=%d, ok=%v) want (rounds=%d, ok=%v)",
					trial, maxRounds, gotR, gotOK, wantR, wantOK)
			}
			identicalStates(t, fmt.Sprintf("trial %d maxRounds %d", trial, maxRounds), gotX, wantX)
		}
	}
	// The already-fixed case: rounds must be 0, not 1.
	fp, _, _ := matrix.FixedPoint[algebras.NatInf](alg, adj, matrix.Identity[algebras.NatInf](alg, adj.N), 100)
	gotX, gotR, gotOK := eng.FixedPoint(fp, 10)
	if !gotOK || gotR != 0 {
		t.Fatalf("fixed start: got (rounds=%d, ok=%v), want (0, true)", gotR, gotOK)
	}
	identicalStates(t, "fixed start", gotX, fp)
}
