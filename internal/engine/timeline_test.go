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
	"repro/internal/pathalg"
	"repro/internal/policy"
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

// holdToOracle requires a timeline run's states at the event steps
// (playAtEvents) and its final state to be the literal evaluator's states
// at the event steps and at the horizon — the horizon also when the run
// certified a fixed point and stopped early.
func holdToOracle[R any](t *testing.T, label string, alg core.Algebra[R], atEvents []*matrix.State[R], res *engine.Result[R],
	hist []*matrix.State[R], events []engine.TimelineEvent[R]) {
	t.Helper()
	if len(atEvents) != len(events) {
		t.Fatalf("%s: %d event-step states, want one per event (%d)", label, len(atEvents), len(events))
	}
	for k, m := range atEvents {
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
				atEvents, res := playAtEvents(t, mustStart(t, eng, start, s, events), s, events)
				eng.Close()
				holdToOracle(t, fmt.Sprintf("seed %d %s marching=%v sharded=%v", seed, name, marching, sharded), alg, atEvents, res, hist, events)
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
			Invalidate: []int{2, 3},
		},
		{
			Step: 80,
			Mutate: func(a *matrix.Adjacency[algebras.NatInf]) {
				a.SetEdge(2, 3, alg.AddEdge(1))
				a.SetEdge(3, 2, alg.AddEdge(1))
			},
			Invalidate: []int{2, 3},
		},
	}
	for _, seed := range []int64{1, 7, 42} {
		timelineAgainstOracle(t, 120, seed, events)
	}
}

// TestTimelineRestartMatchesReference injects node restarts (alone and
// together with a link failure) and checks the run against the oracle. A
// node listed twice restarts once, on one row, so the ring never
// recycles that row twice.
func TestTimelineRestartMatchesReference(t *testing.T) {
	events := []engine.TimelineEvent[algebras.NatInf]{
		{Step: 30, Restart: []int{5}},
		{
			Step: 60,
			Mutate: func(a *matrix.Adjacency[algebras.NatInf]) {
				a.RemoveEdge(9, 10)
				a.RemoveEdge(10, 9)
			},
			Invalidate: []int{9, 10},
			Restart:    []int{0, 7, 0},
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
			Invalidate: []int{2, 3},
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
			Invalidate: []int{0, 1},
		},
	}

	src := engine.Hashed{N: n, T: 4000, Seed: 9, ActivationProbMille: 600}
	eng := engine.New(alg, adj.Clone(), engine.Config{})
	defer eng.Close()
	atEvents, res := playAtEvents(t, mustStart(t, eng, start, src, events), src, events)
	// What it stopped on is still the literal evaluator's state 4000 steps in.
	holdToOracle(t, "early termination", alg, atEvents, res, async.RunTimelineReference(alg, adj.Clone(), start, src, events), events)

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

// crashWindow masks node's activations over steps [from, to): the
// schedule side of a crash window, whose recovery is an Invalidate-only
// event at to. It promotes only Source's methods, so a run over it
// marches through the pointwise adapter.
type crashWindow struct {
	engine.Source
	node, from, to int
}

func (c crashWindow) Active(t, i int) bool {
	return !(i == c.node && t >= c.from && t < c.to) && c.Source.Active(t, i)
}

// packedNet is one packing carrier family for the packed-timeline
// differential: a pristine topology, an edge pair (a, b) the timelines
// cut, and change, which edits a↔b the family's way (a new weight, a new
// program, an edge with no compiled form).
type packedNet[R any] struct {
	alg    core.Algebra[R]
	adj    *matrix.Adjacency[R]
	a, b   int
	change func(adj *matrix.Adjacency[R])
}

// runPackedTimelines plays a table of timelines on the net and holds the
// packed run — sequential and sharded — to the interface path's run of
// the same schedule and timeline (the algebra's packing hidden by
// unpacked): marks, final state and Stats; and both to the literal
// evaluator playing the timeline.
func runPackedTimelines[R any](t *testing.T, p packedNet[R]) {
	n, a, b := p.adj.N, p.a, p.b
	ab, _ := p.adj.Edge(a, b)
	ba, _ := p.adj.Edge(b, a)
	cut := func(adj *matrix.Adjacency[R]) {
		adj.RemoveEdge(a, b)
		adj.RemoveEdge(b, a)
	}
	restore := func(adj *matrix.Adjacency[R]) {
		adj.SetEdge(a, b, ab)
		adj.SetEdge(b, a, ba)
	}
	const T = 160
	hashed := engine.Hashed{N: n, T: T, Seed: 19, MaxGap: 5, MaxStaleness: 4}
	c := (a + 3) % n
	start := matrix.Identity(p.alg, n)
	for _, tl := range []struct {
		name   string
		src    engine.Source
		events []engine.TimelineEvent[R]
	}{
		{"none", hashed, nil},
		{"cut-named", hashed, []engine.TimelineEvent[R]{
			{Step: 30, Mutate: cut, Invalidate: []int{a, b}},
			{Step: 70, Mutate: restore, Invalidate: []int{a, b}},
		}},
		{"change-all", hashed, []engine.TimelineEvent[R]{
			{Step: 30, Mutate: p.change},
			{Step: 90, Mutate: cut},
		}},
		{"restart", hashed, []engine.TimelineEvent[R]{
			{Step: 25, Restart: []int{c}},
			{Step: 26, Restart: []int{a}, Mutate: p.change, Invalidate: []int{a, b}},
		}},
		{"crash-window", crashWindow{hashed, c, 20, 50}, []engine.TimelineEvent[R]{
			{Step: 50, Invalidate: []int{c}},
		}},
	} {
		hist := async.RunTimelineReference(p.alg, p.adj.Clone(), start, tl.src, tl.events)
		for _, cfg := range []struct {
			label string
			mk    func(core.Algebra[R], *matrix.Adjacency[R], engine.Config) *engine.Engine[R]
			conf  engine.Config
		}{
			{"sequential", engine.New[R], engine.Config{Workers: 1}},
			{"sharded", engine.NewSharded[R], engine.Config{Workers: 8}},
		} {
			label := tl.name + "/" + cfg.label
			play := func(alg core.Algebra[R], packed bool) ([]*matrix.State[R], *engine.Result[R]) {
				eng := cfg.mk(alg, p.adj.Clone(), cfg.conf)
				defer eng.Close()
				st := mustStart(t, eng, start, tl.src, tl.events)
				if engine.Packed(st) != packed {
					t.Fatalf("%s: run on packed lanes = %v, want %v", label, !packed, packed)
				}
				return playAtEvents(t, st, tl.src, tl.events)
			}
			atEvents, res := play(p.alg, true)
			oracleAt, oracle := play(unpacked[R]{p.alg}, false)
			for k, m := range atEvents {
				identicalStates(t, fmt.Sprintf("%s event %d", label, k), m, oracleAt[k])
			}
			identicalStates(t, label+" final", res.Final(), oracle.Final())
			statsMatch(t, label, res.Stats(), oracle.Stats())
			holdToOracle(t, label, p.alg, atEvents, res, hist, tl.events)
		}
	}
}

// TestTimelinePackedMatchesInterface: a run takes packed lanes wherever
// the algebra packs and every edge compiles, timeline or not. A mutation
// recompiles the run's kernels — an edge with no compiled form folds
// through the interface — and empties its edge-output memos, so a
// program change cannot fold the old program's outputs.
func TestTimelinePackedMatchesInterface(t *testing.T) {
	t.Run("hopcount", func(t *testing.T) {
		alg, adj := meshNet()
		opaque := core.Fn("opaque+2", alg.AddEdge(2).Apply)
		runPackedTimelines(t, packedNet[algebras.NatInf]{alg, adj, 0, 1, func(adj *matrix.Adjacency[algebras.NatInf]) {
			adj.SetEdge(0, 1, opaque)
			adj.SetEdge(1, 0, opaque)
		}})
	})
	t.Run("interned-pv", func(t *testing.T) {
		_, adj := meshNet()
		sp := algebras.ShortestPaths{}
		base := matrix.NewAdjacency[algebras.NatInf](adj.N)
		for _, e := range adj.Edges() {
			base.SetEdge(e.I, e.J, sp.AddEdge(1))
		}
		in := pathalg.NewInterned[algebras.NatInf](sp, nil)
		runPackedTimelines(t, packedNet[pathalg.IRoute[algebras.NatInf]]{in, pathalg.LiftAdjacencyInterned(in, base), 0, 1,
			func(adj *matrix.Adjacency[pathalg.IRoute[algebras.NatInf]]) {
				adj.SetEdge(0, 1, in.Edge(0, 1, sp.AddEdge(3)))
				adj.SetEdge(1, 0, in.Edge(1, 0, sp.AddEdge(3)))
			}})
	})
	t.Run("policy", func(t *testing.T) {
		p := policyRing(t)
		alt, err := policy.ParsePolicy("if (path(4)) { lp+=3 } else { addc(4); prepend(2) }")
		if err != nil {
			t.Fatal(err)
		}
		in := p.alg.(*policy.Interned)
		runPackedTimelines(t, packedNet[policy.IRoute]{p.alg, p.adj, p.a, p.b, func(adj *matrix.Adjacency[policy.IRoute]) {
			adj.SetEdge(p.a, p.b, in.Edge(p.a, p.b, alt))
			adj.SetEdge(p.b, p.a, in.Edge(p.b, p.a, alt))
		}})
	})
}

// TestMutationCarriesReadTimes: an activation's state is per edge — the β
// node i last read from each in-neighbour k — and lives in flat lists
// indexed like the neighbour lists. A mutation that gives node 0 a new
// in-edge shifts every later node's edges one position on, so a rebuild
// must carry each surviving (i, k) read time to its new position: every
// row the event does not invalidate keeps exactly its read times across
// the event step. The states at the event and at the horizon stay the
// literal evaluator's, packed and not, sequential and sharded.
func TestMutationCarriesReadTimes(t *testing.T) {
	alg, adj := meshNet()
	const at, T = 40, 160
	if _, ok := adj.Edge(0, 5); ok {
		t.Fatal("the mesh already has the edge the event adds")
	}
	events := []engine.TimelineEvent[algebras.NatInf]{{
		Step:       at,
		Mutate:     func(a *matrix.Adjacency[algebras.NatInf]) { a.SetEdge(0, 5, alg.AddEdge(1)) },
		Invalidate: []int{0},
	}}
	src := engine.Hashed{N: adj.N, T: T, Seed: 5, ActivationProbMille: 600, MaxStaleness: 5}
	start := matrix.Identity(alg, adj.N)
	hist := async.RunTimelineReference(alg, adj.Clone(), start, src, events)
	for _, cfg := range []struct {
		label  string
		alg    core.Algebra[algebras.NatInf]
		packed bool
		mk     func(core.Algebra[algebras.NatInf], *matrix.Adjacency[algebras.NatInf], engine.Config) *engine.Engine[algebras.NatInf]
	}{
		{"packed", alg, true, engine.New[algebras.NatInf]},
		{"unpacked", unpacked[algebras.NatInf]{alg}, false, engine.New[algebras.NatInf]},
		{"packed-sharded", alg, true, engine.NewSharded[algebras.NatInf]},
	} {
		eng := cfg.mk(cfg.alg, adj.Clone(), engine.Config{Workers: 2})
		st := mustStart(t, eng, start, src, events)
		if engine.Packed(st) != cfg.packed {
			t.Fatalf("%s: run on packed lanes = %v", cfg.label, !cfg.packed)
		}
		st.Step(at - 1)
		before := engine.ReadBookkeeping(st)
		st.Step(at)
		after := engine.ReadBookkeeping(st)
		kept, read := 0, 0
		for e, b := range before.LastRead {
			if e[0] == 0 {
				continue
			}
			a, ok := after.LastRead[e]
			if !ok || a != b {
				t.Fatalf("%s: edge %v read at %d before the event step, %d (present %v) after", cfg.label, e, b, a, ok)
			}
			kept++
			if b > 0 {
				read++
			}
		}
		want := 0
		for e := range after.LastRead {
			if e[0] != 0 {
				want++
			}
		}
		if kept != want || read == 0 {
			t.Fatalf("%s: %d surviving edges carried (%d read after step 0), want %d", cfg.label, kept, read, want)
		}
		if _, ok := after.LastRead[[2]int{0, 5}]; !ok {
			t.Fatalf("%s: the added edge has no read time", cfg.label)
		}
		identicalStates(t, cfg.label+" at the event", st.State(), hist[at])
		st.Step(T)
		res := st.Result()
		eng.Close()
		identicalStates(t, cfg.label+" final", res.Final(), hist[len(hist)-1])
	}
}

// TestNilStartIsIdentity: a nil start is I, encoded by the run itself —
// the same states at every event step, the same final state and the same
// Stats as a run handed matrix.Identity, on packed lanes and on the
// interface path.
func TestNilStartIsIdentity(t *testing.T) {
	hop, adj := meshNet()
	events := flapEvents(hop)
	src := engine.Hashed{N: adj.N, T: 140, Seed: 31, MaxGap: 6, MaxStaleness: 5}
	for _, cfg := range []struct {
		label  string
		alg    core.Algebra[algebras.NatInf]
		packed bool
	}{
		{"packed", hop, true},
		{"unpacked", unpacked[algebras.NatInf]{hop}, false},
	} {
		play := func(start *matrix.State[algebras.NatInf]) ([]*matrix.State[algebras.NatInf], *engine.Result[algebras.NatInf]) {
			eng := engine.New(cfg.alg, adj.Clone(), engine.Config{})
			defer eng.Close()
			st := mustStart(t, eng, start, src, events)
			if engine.Packed(st) != cfg.packed {
				t.Fatalf("%s: run on packed lanes = %v", cfg.label, !cfg.packed)
			}
			return playAtEvents(t, st, src, events)
		}
		nilAt, nilRes := play(nil)
		idAt, idRes := play(matrix.Identity(cfg.alg, adj.N))
		for k := range idAt {
			identicalStates(t, fmt.Sprintf("%s event %d", cfg.label, k), nilAt[k], idAt[k])
		}
		identicalStates(t, cfg.label+" final", nilRes.Final(), idRes.Final())
		statsMatch(t, cfg.label, nilRes.Stats(), idRes.Stats())
	}
}
