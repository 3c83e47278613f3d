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
)

// The timeline contract: a timeline run is one δ run over one schedule —
// an event changes the instance, not the run (Section 3.2) — so β reads
// across event steps, and every event-step state and the final state must
// be cell-for-cell the literal evaluator's, async.RunTimelineReference,
// under the same source: lazy or materialised, certifying or marching,
// one worker or every row split across eight.

// meshNet is a 12-node hop-count ring with chords — big enough that a
// single link failure leaves most rows untouched.
func meshNet() (algebras.HopCount, *matrix.Adjacency[algebras.NatInf]) {
	alg := algebras.HopCount{Limit: 31}
	n := 12
	adj := matrix.NewAdjacency[algebras.NatInf](n)
	link := func(i, j int) {
		adj.SetEdge(i, j, alg.AddEdge(1))
		adj.SetEdge(j, i, alg.AddEdge(1))
	}
	for i := 0; i < n; i++ {
		link(i, (i+1)%n)
	}
	link(0, 6)
	link(3, 9)
	link(2, 7)
	return alg, adj
}

// holdToOracle requires a timeline run's marks and final state to be the
// literal evaluator's states at the event steps and at the horizon — the
// horizon also when the run certified a fixed point and stopped early.
func holdToOracle[R any](t *testing.T, label string, alg core.Algebra[R], res *engine.Result[R],
	hist []*matrix.State[R], events []engine.TimelineEvent[R]) {
	t.Helper()
	if len(res.Marks()) != len(events) {
		t.Fatalf("%s: %d marks, want one per event (%d)", label, len(res.Marks()), len(events))
	}
	for k, m := range res.Marks() {
		if want := hist[events[k].Step]; !m.Equal(alg, want) {
			t.Fatalf("%s: state at event %d diverges from the reference\nengine:\n%s\nreference:\n%s",
				label, k, m.Format(alg), want.Format(alg))
		}
	}
	if want := hist[len(hist)-1]; !res.Final().Equal(alg, want) {
		t.Fatalf("%s: final state (step %d) diverges from the reference at the horizon\nengine:\n%s\nreference:\n%s",
			label, res.Stats().Steps, res.Final().Format(alg), want.Format(alg))
	}
}

// timelineAgainstOracle plays events on the mesh under three unsegmented
// sources — a Hashed whose β reaches 5 steps back, across the events; a
// materialised schedule.Random over the whole horizon (not Fair: it
// marches to the end); RoundRobin — at Workers 1 and sharded across 8,
// as given and marching (march), and holds each run to the oracle. It
// returns the Workers 1 runs of the sources as given, by source name.
func timelineAgainstOracle(t *testing.T, T int, seed int64, events []engine.TimelineEvent[algebras.NatInf]) map[string]*engine.Result[algebras.NatInf] {
	t.Helper()
	alg, adj := meshNet()
	start := matrix.Identity(alg, adj.N)
	out := map[string]*engine.Result[algebras.NatInf]{}
	for name, src := range map[string]engine.Source{
		"hashed":     engine.Hashed{N: adj.N, T: T, Seed: uint64(seed), ActivationProbMille: 600, MaxStaleness: 5},
		"random":     schedule.Random(rand.New(rand.NewSource(seed)), adj.N, T, schedule.Options{ActivationProb: 0.6, MaxStaleness: 5}),
		"roundrobin": engine.RoundRobin{N: adj.N, T: T},
	} {
		hist := async.RunTimelineReference(alg, adj.Clone(), start, src, events)
		for _, marching := range []bool{false, true} {
			s := src
			if marching {
				s = march(src)
			}
			for _, sharded := range []bool{false, true} {
				var eng *engine.Engine[algebras.NatInf]
				if sharded {
					eng = engine.NewSharded(alg, adj.Clone(), engine.Config{Workers: 8})
				} else {
					eng = engine.New(alg, adj.Clone(), engine.Config{Workers: 1})
				}
				res := playTimeline(t, eng, start, s, events)
				eng.Close()
				holdToOracle(t, fmt.Sprintf("seed %d %s marching=%v sharded=%v", seed, name, marching, sharded), alg, res, hist, events)
				if !marching && !sharded {
					out[name] = res
				}
			}
		}
	}
	return out
}

// TestTimelineLinkFailRecover drives the engine across an adjacency
// mutation — fail a link, re-converge, recover it — and asserts every
// cell bit-identical to the literal evaluator playing the same timeline.
func TestTimelineLinkFailRecover(t *testing.T) {
	alg, _ := meshNet()
	events := []engine.TimelineEvent[algebras.NatInf]{
		{
			Step: 40,
			Mutate: func(a *matrix.Adjacency[algebras.NatInf]) {
				a.RemoveEdge(2, 3)
				a.RemoveEdge(3, 2)
			},
			Rows: []int{2, 3},
		},
		{
			Step: 80,
			Mutate: func(a *matrix.Adjacency[algebras.NatInf]) {
				a.SetEdge(2, 3, alg.AddEdge(1))
				a.SetEdge(3, 2, alg.AddEdge(1))
			},
			Rows: []int{2, 3},
		},
	}
	for _, seed := range []int64{1, 7, 42} {
		timelineAgainstOracle(t, 120, seed, events)
	}
}

// TestTimelineRestartMatchesReference injects node restarts (alone and
// together with a link failure) and checks the run against the oracle.
func TestTimelineRestartMatchesReference(t *testing.T) {
	events := []engine.TimelineEvent[algebras.NatInf]{
		{Step: 30, Restart: []int{5}},
		{
			Step: 60,
			Mutate: func(a *matrix.Adjacency[algebras.NatInf]) {
				a.RemoveEdge(9, 10)
				a.RemoveEdge(10, 9)
			},
			Rows:    []int{9, 10},
			Restart: []int{0, 7},
		},
	}
	timelineAgainstOracle(t, 100, 11, events)
}

// TestTimelineIncrementalWin checks the timeline's economics: after the
// engine has converged, a single link failure must recompute far fewer
// cells than recomputing every activated row in full would — and the
// result must agree with the oracle cell for cell.
func TestTimelineIncrementalWin(t *testing.T) {
	_, adj := meshNet()
	n := adj.N
	events := []engine.TimelineEvent[algebras.NatInf]{
		{
			Step: 60,
			Mutate: func(a *matrix.Adjacency[algebras.NatInf]) {
				a.RemoveEdge(2, 3)
				a.RemoveEdge(3, 2)
			},
			Rows: []int{2, 3},
		},
	}
	for name, res := range timelineAgainstOracle(t, 120, 3, events) {
		st := res.Stats()
		ci, cf := st.CellsComputed, n*(st.RowsComputed+st.RowsSkipped)
		if ci*2 >= cf {
			t.Fatalf("%s: timeline computed %d cells vs %d for full recomputation — expected under half", name, ci, cf)
		}
	}
}

// TestTimelineEarlyTermination runs a timeline under a Fair lazy source:
// the run must not stop at the fixed point it reaches before the pending
// event, and must certify convergence after the last event fires.
func TestTimelineEarlyTermination(t *testing.T) {
	alg, adj := meshNet()
	n := adj.N
	start := matrix.Identity(alg, n)

	events := []engine.TimelineEvent[algebras.NatInf]{
		{
			Step: 400,
			Mutate: func(a *matrix.Adjacency[algebras.NatInf]) {
				a.RemoveEdge(0, 1)
				a.RemoveEdge(1, 0)
			},
			Rows: []int{0, 1},
		},
	}

	src := engine.Hashed{N: n, T: 4000, Seed: 9, ActivationProbMille: 600}
	eng := engine.New(alg, adj.Clone(), engine.Config{})
	defer eng.Close()
	res := playTimeline(t, eng, start, src, events)
	// What it stopped on is still the literal evaluator's state 4000 steps in.
	holdToOracle(t, "early termination", alg, res, async.RunTimelineReference(alg, adj.Clone(), start, src, events), events)

	at, ok := res.Converged()
	if !ok {
		t.Fatal("timeline run under a Fair source failed to certify convergence after the last event")
	}
	if at < 400 {
		t.Fatalf("run certified convergence at t=%d, before the pending event at 400", at)
	}
	// The certified fixed point must be σ-stable on the post-event topology.
	mut := adj.Clone()
	mut.RemoveEdge(0, 1)
	mut.RemoveEdge(1, 0)
	if !matrix.IsStable(alg, mut, res.Final()) {
		t.Fatal("certified timeline fixed point is not σ-stable on the post-event topology")
	}
}

// TestTimelineEmptyMatchesRun: a run with no events takes packed lanes
// where the algebra packs, and must equal the interface path's run of the
// same schedule — identical final state and stats.
func TestTimelineEmptyMatchesRun(t *testing.T) {
	alg, adj := meshNet()
	n := adj.N
	start := matrix.Identity(alg, n)
	rng := rand.New(rand.NewSource(5))
	sched := schedule.Random(rng, n, 60, schedule.Options{ActivationProb: 0.5, MaxStaleness: 4})

	e1 := engine.New(alg, adj.Clone(), engine.Config{})
	packed := e1.Run(start, sched)
	e1.Close()

	e2 := engine.New[algebras.NatInf](unpacked[algebras.NatInf]{alg}, adj.Clone(), engine.Config{})
	generic := e2.Run(start, sched)
	e2.Close()

	if !packed.Final().Equal(alg, generic.Final()) {
		t.Fatal("the packed run diverges from the interface path's")
	}
	if packed.Stats() != generic.Stats() {
		t.Fatalf("stats diverge: packed %+v vs interface %+v", packed.Stats(), generic.Stats())
	}
}
