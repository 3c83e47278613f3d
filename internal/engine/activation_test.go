package engine_test

import (
	"fmt"
	"reflect"
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
// The same instance is then run again without a timeline and compared in
// the same way. Hop count packs, so both of its runs are on packed lanes;
// with the packing hidden (unpacked) and for lex, which does not pack,
// both are on the interface path.
func TestShardedActivationsAcrossMutation(t *testing.T) {
	const n = 96
	t.Run("hopcount", func(t *testing.T) {
		alg, adj := incrementalNet(n)
		shardedAcrossMutation[algebras.NatInf](t, alg, adj)
	})
	t.Run("hopcount-unpacked", func(t *testing.T) {
		alg, adj := incrementalNet(n)
		shardedAcrossMutation[algebras.NatInf](t, unpacked[algebras.NatInf]{alg}, adj)
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
	c, ok := alg.(core.Columnar[R])
	if packs := ok && c.ColumnarOK(); engine.Packed(seq) != packs || engine.Packed(par) != packs {
		t.Fatalf("packed lanes: sequential %v, sharded %v; want %v", engine.Packed(seq), engine.Packed(par), packs)
	}

	if !stepBoth(t, "timeline", seq, par, src.T) {
		t.Fatal("the timeline runs did not finish")
	}
	if _, fanouts, _ := engine.PoolCounters(parEng); fanouts == 0 {
		t.Fatal("the sharded run never fanned out; the comparison tested nothing")
	}
	if jumped := par.At() - len(events) - p.sets.get(); jumped <= 0 {
		t.Fatal("no step was jumped: the timeline has no interlude")
	}
	finalsMatch(t, "timeline", seq, par)

	seq = mustStart(t, seqEng, start, src, nil)
	par = mustStart(t, parEng, start, src, nil)
	if !stepBoth(t, "event-free", seq, par, src.T) {
		t.Fatal("the event-free runs did not finish")
	}
	finalsMatch(t, "event-free", seq, par)
}

// finalsMatch ends both runs and requires the same final state and Stats
// and a certified convergence.
func finalsMatch[R any](t *testing.T, label string, seq, par *engine.Stepper[R]) {
	t.Helper()
	seqRes, parRes := seq.Result(), par.Result()
	identicalStates(t, label+" final", parRes.Final(), seqRes.Final())
	statsMatch(t, label+" final", parRes.Stats(), seqRes.Stats())
	if _, ok := seqRes.Converged(); !ok {
		t.Fatalf("%s: the run did not certify convergence: %+v", label, seqRes.Stats())
	}
}

// stepBoth steps the sequential and the sharded run one step at a time up
// to until, and requires after every step the same state and Stats
// (RowsSkipped included), and every bookkeepingEvery steps the same
// change-tracking matrices and certification. It reports whether the
// runs are done.
func stepBoth[R any](t *testing.T, label string, seq, par *engine.Stepper[R], until int) bool {
	t.Helper()
	const bookkeepingEvery = 16
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
		identicalStates(t, kl, par.State(), seq.State())
		if k%bookkeepingEvery == 0 && !reflect.DeepEqual(engine.ReadBookkeeping(par), engine.ReadBookkeeping(seq)) {
			t.Fatalf("%s: the sharded run's change tracking or certification differs from the sequential run's", kl)
		}
	}
	return false
}
