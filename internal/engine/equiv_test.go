package engine_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/algebras"
	"repro/internal/async"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/gaorexford"
	"repro/internal/matrix"
	"repro/internal/schedule"
)

// The equivalence contract: the engine must be indistinguishable from the
// sequential reference implementations. Under the all-active synchronous
// schedule it must reproduce iterated matrix.Sigma state by state, and
// under arbitrary recorded schedules it must reproduce the literal
// clone-everything evaluator (async.RunReference) cell by cell — across
// algebras with very different route types.

// hopNet is a 5-node hop-count ring with a filtered chord.
func hopNet() (core.Algebra[algebras.NatInf], *matrix.Adjacency[algebras.NatInf], []algebras.NatInf) {
	alg := algebras.HopCount{Limit: 9}
	adj := matrix.NewAdjacency[algebras.NatInf](5)
	link := func(i, j int, w algebras.NatInf) {
		adj.SetEdge(i, j, alg.AddEdge(w))
		adj.SetEdge(j, i, alg.AddEdge(w))
	}
	link(0, 1, 1)
	link(1, 2, 1)
	link(2, 3, 2)
	link(3, 4, 1)
	link(4, 0, 1)
	adj.SetEdge(0, 2, alg.ConditionalEdge(1, algebras.DistanceAtMost(3)))
	return alg, adj, alg.Universe()
}

// lexNet is a 5-node ring under the lexicographic product
// (widest-paths, hop-count) — a two-component route type.
func lexNet() (core.Algebra[algebras.Pair[algebras.NatInf, algebras.NatInf]], *matrix.Adjacency[algebras.Pair[algebras.NatInf, algebras.NatInf]], []algebras.Pair[algebras.NatInf, algebras.NatInf]) {
	wide := algebras.WidestPaths{}
	hops := algebras.HopCount{Limit: 9}
	lex := algebras.NewLex[algebras.NatInf, algebras.NatInf](wide, hops)
	adj := matrix.NewAdjacency[algebras.Pair[algebras.NatInf, algebras.NatInf]](5)
	caps := []algebras.NatInf{3, 7, 2, 9, 5}
	for i := 0; i < 5; i++ {
		j := (i + 1) % 5
		e := lex.Edge(wide.CapEdge(caps[i]), hops.AddEdge(1))
		adj.SetEdge(i, j, e)
		adj.SetEdge(j, i, e)
	}
	var universe []algebras.Pair[algebras.NatInf, algebras.NatInf]
	for _, w := range []algebras.NatInf{0, 2, 5, algebras.Inf} {
		for _, h := range []algebras.NatInf{0, 1, 4, algebras.Inf} {
			universe = append(universe, algebras.Pair[algebras.NatInf, algebras.NatInf]{First: w, Second: h})
		}
	}
	return lex, adj, universe
}

// grNet is a 6-node Gao–Rexford hierarchy: customer/provider/peer edges.
func grNet() (core.Algebra[gaorexford.Route], *matrix.Adjacency[gaorexford.Route], []gaorexford.Route) {
	alg := gaorexford.Algebra{MaxHops: 12}
	adj := matrix.NewAdjacency[gaorexford.Route](6)
	for i := 0; i < 6; i++ {
		for j := 0; j < 6; j++ {
			if i == j {
				continue
			}
			switch {
			case i+1 == j || j+1 == i:
				adj.SetEdge(i, j, alg.Edge(gaorexford.PeerEdge))
			case i < j:
				adj.SetEdge(i, j, alg.Edge(gaorexford.CustomerEdge))
			default:
				adj.SetEdge(i, j, alg.Edge(gaorexford.ProviderEdge))
			}
		}
	}
	return alg, adj, alg.Universe()
}

// identicalStates requires cell-for-cell structural equality, stricter
// than alg.Equal: the engine's merge must be bit-identical, not merely
// equivalent.
func identicalStates[R any](t *testing.T, label string, got, want *matrix.State[R]) {
	t.Helper()
	if got.N != want.N {
		t.Fatalf("%s: dimension %d != %d", label, got.N, want.N)
	}
	for i := 0; i < got.N; i++ {
		for j := 0; j < got.N; j++ {
			if !reflect.DeepEqual(got.Get(i, j), want.Get(i, j)) {
				t.Fatalf("%s: cell (%d,%d): got %#v want %#v", label, i, j, got.Get(i, j), want.Get(i, j))
			}
		}
	}
}

// stepAgainst steps st one step at a time to len(want)−1 and requires the
// state after every step t to be want[t], read off a Snapshot (which
// only reads, so the run goes on undisturbed). It returns the finished
// run.
func stepAgainst[R any](t *testing.T, label string, st *engine.Stepper[R], want []*matrix.State[R]) *engine.Result[R] {
	t.Helper()
	for tt := 1; tt < len(want); tt++ {
		st.Step(tt)
		snap, err := st.Snapshot()
		if err != nil {
			t.Fatalf("%s: snapshot at t=%d: %v", label, tt, err)
		}
		identicalStates(t, fmt.Sprintf("%s, t=%d", label, tt), snap.States[len(snap.States)-1], want[tt])
	}
	return st.Result()
}

// runEquiv exercises one algebra through every equivalence obligation.
func runEquiv[R any](t *testing.T, alg core.Algebra[R], adj *matrix.Adjacency[R], universe []R) {
	n := adj.N
	rng := rand.New(rand.NewSource(42))

	t.Run("synchronous-recovers-sigma", func(t *testing.T) {
		start := matrix.Identity[R](alg, n)
		sigma := []*matrix.State[R]{start}
		for tt := 1; tt <= 12; tt++ {
			sigma = append(sigma, matrix.Sigma(alg, adj, sigma[tt-1]))
		}
		// Marching: a certified fixed point has no snapshot to read.
		eng := engine.New(alg, adj, engine.Config{})
		defer eng.Close()
		stepAgainst(t, "sync step", mustStart(t, eng, start, march(engine.Synchronous{N: n, T: 12}), nil), sigma)
	})

	t.Run("recorded-schedules-match-reference", func(t *testing.T) {
		eng := engine.New(alg, adj, engine.Config{})
		defer eng.Close()
		for trial := 0; trial < 10; trial++ {
			start := matrix.RandomStateFrom(rng, n, universe)
			var sched *schedule.Schedule
			if trial%2 == 0 {
				sched = schedule.Random(rng, n, 120, schedule.Options{MaxGap: 8, MaxStaleness: 7})
			} else {
				sched = schedule.Adversarial(rng, n, 120, 9, 6)
			}
			ref := async.RunReference(alg, adj, start, sched)
			res := stepAgainst(t, fmt.Sprintf("trial %d", trial), mustStart(t, eng, start, sched, nil), ref)
			identicalStates(t, "final", res.Final(), ref[len(ref)-1])
			if _, ok := res.Converged(); ok || res.Stats().Steps != sched.T {
				t.Fatalf("a schedule with no fairness contract must run to the horizon %d, stopped at %d", sched.T, res.Stats().Steps)
			}
		}
	})

	t.Run("sharding-is-deterministic", func(t *testing.T) {
		start := matrix.RandomStateFrom(rng, n, universe)
		sched := schedule.Random(rng, n, 100, schedule.Options{MaxGap: 8, MaxStaleness: 6})
		seq := engine.New(alg, adj, engine.Config{Workers: 1}).Run(start, sched)
		// NewSharded fans every step out even on tiny networks: seven
		// helpers sharing the rows. CellsComputed is summed from the
		// workers' own counters.
		sharded := engine.NewSharded(alg, adj, engine.Config{Workers: 8})
		defer sharded.Close()
		par := sharded.Run(start, sched)
		identicalStates(t, "workers=1 vs workers=8", par.Final(), seq.Final())
		if par.Stats() != seq.Stats() {
			t.Fatalf("sharded stats %+v, sequential %+v", par.Stats(), seq.Stats())
		}
		// An activation is the unit of parallel work: every step fans out,
		// and builds exactly one task per activation — computed or
		// skipped — however many workers are idle.
		st := mustStart(t, sharded, start, sched, nil)
		defer st.Close()
		for k, acts := 1, 0; k <= sched.T; k++ {
			st.Step(k)
			stats := st.Stats()
			if activated := stats.RowsComputed + stats.RowsSkipped - acts; activated > 0 {
				if tasks := engine.LastStepTasks(st); tasks != activated {
					t.Fatalf("step %d: %d activations over 8 workers ran as %d tasks, want one task per activation", k, activated, tasks)
				}
				acts += activated
			}
		}
	})

	t.Run("fixed-point-matches-matrix", func(t *testing.T) {
		start := matrix.RandomStateFrom(rng, n, universe)
		wantFP, wantRounds, wantOK := matrix.FixedPoint(alg, adj, start, 200)
		gotFP, gotRounds, gotOK := engine.New(alg, adj, engine.Config{}).FixedPoint(start, 200)
		if gotOK != wantOK || gotRounds != wantRounds {
			t.Fatalf("FixedPoint: got (rounds=%d, ok=%v) want (rounds=%d, ok=%v)", gotRounds, gotOK, wantRounds, wantOK)
		}
		identicalStates(t, "fixed point", gotFP, wantFP)
	})
}

// TestShardsFollowTheFanOutDecision: a step too small to pay for the
// hand-off stays inline, one task per row. A lone pending row at n = 192
// with two workers runs as one task on the caller and never wakes the
// pool.
func TestShardsFollowTheFanOutDecision(t *testing.T) {
	alg, adj := incrementalNet(192)
	start := matrix.Identity[algebras.NatInf](alg, 192)
	src := engine.RoundRobin{N: 192, T: 600}
	want := engine.New[algebras.NatInf](alg, adj, engine.Config{Workers: 1}).Run(start, src)

	eng := engine.New[algebras.NatInf](alg, adj, engine.Config{Workers: 2})
	defer eng.Close()
	st := mustStart(t, eng, start, src, nil)
	rows := 0
	for k := 1; !st.Step(k); k++ {
		if computed := st.Stats().RowsComputed - rows; computed > 0 {
			if tasks := engine.LastStepTasks(st); computed != 1 || tasks != 1 {
				t.Fatalf("step %d: %d pending rows ran as %d tasks, want one row in one task", k, computed, tasks)
			}
			rows += computed
		}
	}
	if rows == 0 {
		t.Fatal("no step computed a row")
	}
	got := st.Result()
	identicalStates(t, "workers=2 vs workers=1", got.Final(), want.Final())
	if got.Stats() != want.Stats() {
		t.Fatalf("stats %+v, sequential %+v", got.Stats(), want.Stats())
	}
	if _, fanouts, _ := engine.PoolCounters(eng); fanouts != 0 {
		t.Fatalf("single-row steps fanned out %d times", fanouts)
	}
}

func TestEquivalenceHopCount(t *testing.T) {
	alg, adj, u := hopNet()
	runEquiv(t, alg, adj, u)
}

func TestEquivalenceLex(t *testing.T) {
	alg, adj, u := lexNet()
	runEquiv(t, alg, adj, u)
}

func TestEquivalenceGaoRexford(t *testing.T) {
	alg, adj, u := grNet()
	runEquiv(t, alg, adj, u)
}

func TestLazySourcesMatchMaterialised(t *testing.T) {
	alg, adj, _ := hopNet()
	start := matrix.Identity[algebras.NatInf](alg, adj.N)
	lazySync := engine.Run(alg, adj, start, engine.Synchronous{N: adj.N, T: 20}).Final()
	matSync := engine.Run(alg, adj, start, schedule.Synchronous(adj.N, 20)).Final()
	identicalStates(t, "synchronous", lazySync, matSync)

	lazyRR := engine.Run(alg, adj, start, engine.RoundRobin{N: adj.N, T: 40}).Final()
	matRR := engine.Run(alg, adj, start, schedule.RoundRobin(adj.N, 40)).Final()
	identicalStates(t, "round-robin", lazyRR, matRR)
}

func TestHashedSourceConverges(t *testing.T) {
	// The O(1)-memory pseudo-random schedule satisfies the bounded axioms,
	// so δ over it must reach the σ fixed point like any other schedule.
	alg, adj, _ := hopNet()
	want, _, ok := matrix.FixedPoint(alg, adj, matrix.Identity[algebras.NatInf](alg, adj.N), 100)
	if !ok {
		t.Fatal("σ must converge")
	}
	eng := engine.New(alg, adj, engine.Config{})
	defer eng.Close()
	for seed := uint64(0); seed < 5; seed++ {
		src := engine.Hashed{N: adj.N, T: 400, Seed: seed, MaxGap: 10, MaxStaleness: 6}
		got, resident := engine.RunResident(eng, matrix.Identity[algebras.NatInf](alg, adj.N), src)
		identicalStates(t, "hashed limit", got.Final(), want)
		if resident > 7 {
			t.Fatalf("bounded run retained %d states, want ≤ MaxStaleness+1", resident)
		}
	}
}

// TestLyingLookbackPanics: the ring is as deep as the source says, so a
// source that understates its MaxLookback must panic at the first β
// reaching past it, not read stale memory — on the caller's goroutine,
// also when the activation that draws it runs on a pool helper.
func TestLyingLookbackPanics(t *testing.T) {
	alg, adj, _ := hopNet()
	rng := rand.New(rand.NewSource(7))
	sched := schedule.Random(rng, adj.N, 60, schedule.Options{MaxGap: 8, MaxStaleness: 10})
	if sched.MaxLookback() <= 2 {
		t.Skip("draw happened to be fresh; nothing to trip over")
	}
	for _, eng := range []*engine.Engine[algebras.NatInf]{
		engine.New[algebras.NatInf](alg, adj, engine.Config{}),
		engine.NewSharded[algebras.NatInf](alg, adj, engine.Config{Workers: 4}),
	} {
		func() {
			defer eng.Close()
			defer func() {
				if recover() == nil {
					t.Fatal("a source claiming MaxLookback 1 over a staler β must panic, not read stale memory")
				}
			}()
			eng.Run(matrix.Identity[algebras.NatInf](alg, adj.N), lookback{sched, 1})
		}()
	}
}

func TestRowRecyclingKeepsResultsIntact(t *testing.T) {
	// Stress the ring eviction: long horizon, small window, verify the
	// final state against the reference and that the ring stayed bounded.
	// That recycling engaged is the allocation gates' to prove (the E5
	// gate, TestRunnerQuantumAllocation).
	alg, adj, u := hopNet()
	rng := rand.New(rand.NewSource(9))
	start := matrix.RandomStateFrom(rng, adj.N, u)
	sched := schedule.Random(rng, adj.N, 500, schedule.Options{MaxGap: 8, MaxStaleness: 5})
	ref := async.RunReference(alg, adj, start, sched)
	eng := engine.New(alg, adj, engine.Config{})
	defer eng.Close()
	res, resident := engine.RunResident(eng, start, sched)
	identicalStates(t, "long horizon", res.Final(), ref[len(ref)-1])
	if resident > sched.MaxLookback()+1 {
		t.Errorf("retained %d states, want ≤ lookback+1 = %d", resident, sched.MaxLookback()+1)
	}
}
