package engine_test

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/algebras"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/matrix"
)

// TestShardedActivationsAcrossMutation: a run whose activations fan out
// over eight workers — β draws, skip tests, table resolution and kernels
// all on the pool — is the sequential run at every step, paused at each
// one, across a timeline that
//   - restarts a node,
//   - adds an edge that raises the maximum in-degree, so the per-edge
//     thresholds and every worker's β scratch are rebuilt mid-run,
//   - and then waits long enough for the run to jump a quiescent
//     interlude, which rotates the ring and its replaced-row lists.
//
// Both runs are then snapshotted and resumed with nothing left to play,
// which puts a packing algebra (hop count) on the columnar path — a
// timeline run is always on the interface path — and stepped to the end.
func TestShardedActivationsAcrossMutation(t *testing.T) {
	const n = 96
	t.Run("hopcount", func(t *testing.T) {
		alg, adj := incrementalNet(n)
		shardedAcrossMutation[algebras.NatInf](t, alg, adj)
	})
	t.Run("lex", func(t *testing.T) {
		wide, hops := algebras.WidestPaths{}, algebras.HopCount{Limit: 2 * n}
		lex := algebras.NewLex[algebras.NatInf, algebras.NatInf](wide, hops)
		adj := matrix.NewAdjacency[algebras.Pair[algebras.NatInf, algebras.NatInf]](n)
		link := func(i, j int, c algebras.NatInf) {
			e := lex.Edge(wide.CapEdge(c), hops.AddEdge(1))
			adj.SetEdge(i, j, e)
			adj.SetEdge(j, i, e)
		}
		for i := 0; i < n; i++ {
			link(i, (i+1)%n, algebras.NatInf(1+i%7))
		}
		for i := 0; i < n; i += 8 {
			link(i, (i+n/2)%n, 3)
		}
		shardedAcrossMutation(t, lex, adj)
	})
}

func shardedAcrossMutation[R any](t *testing.T, alg core.Algebra[R], adj *matrix.Adjacency[R]) {
	n := adj.N
	// Node 1 has degree 2 and node 40 (a chord end) degree 3: the new edge
	// raises the maximum from 3 to 4.
	e01, _ := adj.Edge(0, 1)
	const restartAt, mutateAt, lastAt = 20, 150, 330
	events := []engine.TimelineEvent[R]{
		{Step: restartAt, Restart: []int{5}},
		{Step: mutateAt, Invalidate: []int{1, 40}, Mutate: func(a *matrix.Adjacency[R]) {
			a.SetEdge(1, 40, e01)
			a.SetEdge(40, 1, e01)
		}},
		{Step: lastAt, Invalidate: []int{7}},
	}
	src := engine.Hashed{N: n, T: 600, Seed: 36, MaxGap: 16, MaxStaleness: 8}
	start := matrix.Identity(alg, n)

	seqAdj, parAdj := adj.Clone(), adj.Clone()
	seqEng := engine.New(alg, seqAdj, engine.Config{Workers: 1})
	defer seqEng.Close()
	parEng := engine.NewSharded(alg, parAdj, engine.Config{Workers: 8})
	defer parEng.Close()
	p := &probe{Source: src}
	seq := mustStart(t, seqEng, start, src, events)
	par := mustStart(t, parEng, start, p, events)

	// The timeline, then a few steps past its last event.
	resumeAt := lastAt + 5
	if stepBoth(t, "timeline", seq, par, resumeAt) {
		t.Fatalf("the run ended by step %d, before the resume", resumeAt)
	}
	if _, fanouts, _ := engine.PoolCounters(parEng); fanouts == 0 {
		t.Fatal("the sharded run never fanned out; the comparison tested nothing")
	}
	if jumped := resumeAt - len(events) - p.sets.get(); jumped <= 0 {
		t.Fatal("no step was jumped: the timeline has no interlude")
	}

	seqSnap, err := seq.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	parSnap, err := par.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	seq.Close()
	par.Close()
	seqEng2 := engine.New(alg, seqAdj, engine.Config{Workers: 1})
	defer seqEng2.Close()
	parEng2 := engine.NewSharded(alg, parAdj, engine.Config{Workers: 8})
	defer parEng2.Close()
	seq, err = seqEng2.Resume(seqSnap, src, nil)
	if err != nil {
		t.Fatal(err)
	}
	par, err = parEng2.Resume(parSnap, src, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !stepBoth(t, "resumed", seq, par, src.T) {
		t.Fatal("the resumed runs did not finish")
	}
	seqRes, parRes := seq.Result(), par.Result()
	identicalStates(t, "final", parRes.Final(), seqRes.Final())
	statsMatch(t, "final", parRes.Stats(), seqRes.Stats())
	if _, ok := seqRes.Converged(); !ok {
		t.Fatalf("the run did not certify after its last event: %+v", seqRes.Stats())
	}
}

// stepBoth steps the sequential and the sharded run one step at a time up
// to until, and requires after every step the same state and Stats
// (RowsSkipped included), and every snapshotEvery steps, where a
// snapshot exists, the same change-tracking matrices and certification.
// It reports whether the runs are done.
func stepBoth[R any](t *testing.T, label string, seq, par *engine.Stepper[R], until int) bool {
	t.Helper()
	const snapshotEvery = 16
	for k := seq.At() + 1; k <= until; k++ {
		doneSeq, donePar := seq.Step(k), par.Step(k)
		kl := fmt.Sprintf("%s step %d", label, k)
		if doneSeq != donePar || seq.At() != par.At() {
			t.Fatalf("%s: sequential done=%v at %d, sharded done=%v at %d", kl, doneSeq, seq.At(), donePar, par.At())
		}
		statsMatch(t, kl, par.Stats(), seq.Stats())
		if doneSeq {
			return true
		}
		identicalStates(t, kl, engine.Current(par), engine.Current(seq))
		if k%snapshotEvery != 0 {
			continue
		}
		want, errSeq := seq.Snapshot()
		got, errPar := par.Snapshot()
		if (errSeq == nil) != (errPar == nil) {
			t.Fatalf("%s: snapshot errors differ: sequential %v, sharded %v", kl, errSeq, errPar)
		}
		if errSeq == nil && (!slices.Equal(got.Ver, want.Ver) || !slices.Equal(got.LastComp, want.LastComp) ||
			!slices.Equal(got.LastRead, want.LastRead) || !slices.Equal(got.Certified, want.Certified) ||
			got.LastChange != want.LastChange) {
			t.Fatalf("%s: the sharded run's change tracking or certification differs from the sequential run's", kl)
		}
	}
	return false
}
