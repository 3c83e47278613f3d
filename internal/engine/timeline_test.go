package engine_test

import (
	"math/rand"
	"testing"

	"repro/internal/algebras"
	"repro/internal/async"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/matrix"
	"repro/internal/schedule"
)

// The timeline contract: a RunTimeline is a sequence of plain δ runs
// stitched together — segment s runs on the topology after event s, from
// the state the previous segment reached (with the event's restarts
// applied). Each segment must be cell-for-cell identical to the literal
// reference evaluator on that segment's topology, and the incremental
// machinery must survive the stitch points.

// segPlan is a Source that plays an independent materialised random
// schedule per inter-event segment, with β clamped so no lookup reaches
// past the most recent event step. Event steps themselves have no
// activations. The clamping is what makes the segment-wise differential
// exact: segment s, viewed in local time, is precisely segs[s].
type segPlan struct {
	n      int
	starts []int // starts[s] = global step that is segment s's local time 0
	segs   []*schedule.Schedule
}

// newSegPlan splits horizon T at the given (strictly increasing) event
// steps and draws a random schedule for each segment.
func newSegPlan(rng *rand.Rand, n, T int, evSteps []int, opts schedule.Options) *segPlan {
	p := &segPlan{n: n}
	prev := 0
	for _, es := range evSteps {
		p.starts = append(p.starts, prev)
		p.segs = append(p.segs, schedule.Random(rng, n, es-prev-1, opts))
		prev = es
	}
	p.starts = append(p.starts, prev)
	p.segs = append(p.segs, schedule.Random(rng, n, T-prev, opts))
	return p
}

func (p *segPlan) Nodes() int { return p.n }

func (p *segPlan) Horizon() int {
	last := len(p.segs) - 1
	return p.starts[last] + p.segs[last].T
}

func (p *segPlan) MaxLookback() int {
	max := 1
	for _, s := range p.segs {
		if m := s.MaxLookback(); m > max {
			max = m
		}
	}
	return max
}

// seg locates the segment containing global step t; ok is false on event
// steps (which belong to no segment).
func (p *segPlan) seg(t int) (s, tau int, ok bool) {
	for s = len(p.starts) - 1; s >= 0; s-- {
		if t > p.starts[s] {
			tau = t - p.starts[s]
			return s, tau, tau <= p.segs[s].T
		}
	}
	panic("segPlan: step before start")
}

func (p *segPlan) Active(t, i int) bool {
	s, tau, ok := p.seg(t)
	if !ok {
		return false
	}
	return p.segs[s].Active(tau, i)
}

func (p *segPlan) Beta(t, i, k int) int {
	s, tau, _ := p.seg(t)
	return p.starts[s] + p.segs[s].Beta(tau, i, k)
}

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

// replayReference replays the same timeline with async.RunReference: a
// fresh literal evaluation per segment on that segment's topology,
// restarts applied by hand at the boundaries. Returns the state at each
// event step and the final state.
func replayReference[R any](
	alg core.Algebra[R], adj *matrix.Adjacency[R], start *matrix.State[R],
	p *segPlan, events []engine.TimelineEvent[R],
) (bounds []*matrix.State[R], final *matrix.State[R]) {
	cur := start
	for s, seg := range p.segs {
		if seg.T > 0 {
			hist := async.RunReference(alg, adj, cur, seg)
			cur = hist[len(hist)-1]
		}
		if s < len(events) {
			ev := events[s]
			next := cur.Clone()
			for _, i := range ev.Restart {
				row := make([]R, p.n)
				for j := range row {
					row[j] = alg.Invalid()
				}
				row[i] = alg.Trivial()
				next.SetRow(i, row)
			}
			if ev.Mutate != nil {
				ev.Mutate(adj)
			}
			cur = next
			bounds = append(bounds, cur)
		}
	}
	return bounds, cur
}

// TestTimelineLinkFailRecover drives the engine across an adjacency
// mutation — fail a link, re-converge, recover it — under a random
// asynchronous schedule, and asserts every cell bit-identical to a fresh
// reference run on each intermediate topology.
func TestTimelineLinkFailRecover(t *testing.T) {
	alg, adj := meshNet()
	n := adj.N
	start := matrix.Identity(alg, n)

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
		rng := rand.New(rand.NewSource(seed))
		p := newSegPlan(rng, n, 120, []int{40, 80}, schedule.Options{ActivationProb: 0.6, MaxStaleness: 5})

		refBounds, refFinal := replayReference(alg, adj.Clone(), start, p, events)

		eng := engine.New(alg, adj.Clone(), engine.Config{})
		res := eng.RunTimeline(start, p, events)
		eng.Close()

		if res.Stats().Events != len(events) {
			t.Fatalf("seed %d: %d events applied, want %d", seed, res.Stats().Events, len(events))
		}
		marks := res.Marks()
		if len(marks) != len(refBounds) {
			t.Fatalf("seed %d: %d marks, want %d", seed, len(marks), len(refBounds))
		}
		for k := range marks {
			if !marks[k].Equal(alg, refBounds[k]) {
				t.Fatalf("seed %d: state at event %d diverges from reference\nengine:\n%s\nreference:\n%s",
					seed, k, marks[k].Format(alg), refBounds[k].Format(alg))
			}
		}
		if !res.Final().Equal(alg, refFinal) {
			t.Fatalf("seed %d: final state diverges from reference\nengine:\n%s\nreference:\n%s",
				seed, res.Final().Format(alg), refFinal.Format(alg))
		}
	}
}

// TestTimelineRestartMatchesReference injects node restarts (alone and
// together with a link failure) and checks the stitched run against the
// reference replay.
func TestTimelineRestartMatchesReference(t *testing.T) {
	alg, adj := meshNet()
	n := adj.N
	start := matrix.Identity(alg, n)

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

	rng := rand.New(rand.NewSource(11))
	p := newSegPlan(rng, n, 100, []int{30, 60}, schedule.Options{ActivationProb: 0.5, MaxStaleness: 4})

	refBounds, refFinal := replayReference(alg, adj.Clone(), start, p, events)

	eng := engine.New(alg, adj.Clone(), engine.Config{})
	res := eng.RunTimeline(start, p, events)
	eng.Close()

	for k, m := range res.Marks() {
		if !m.Equal(alg, refBounds[k]) {
			t.Fatalf("state at event %d diverges from reference\nengine:\n%s\nreference:\n%s",
				k, m.Format(alg), refBounds[k].Format(alg))
		}
	}
	if !res.Final().Equal(alg, refFinal) {
		t.Fatalf("final state diverges\nengine:\n%s\nreference:\n%s",
			res.Final().Format(alg), refFinal.Format(alg))
	}
}

// TestTimelineIncrementalWin checks the timeline's economics: after the
// engine has converged, a single link failure must recompute far fewer
// cells than recomputing every activated row in full would — and the
// result must agree with the reference replay cell for cell.
func TestTimelineIncrementalWin(t *testing.T) {
	alg, adj := meshNet()
	n := adj.N
	start := matrix.Identity(alg, n)

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

	rng := rand.New(rand.NewSource(3))
	p := newSegPlan(rng, n, 120, []int{60}, schedule.Options{ActivationProb: 0.7, MaxStaleness: 3})

	_, refFinal := replayReference(alg, adj.Clone(), start, p, events)

	eng := engine.New(alg, adj.Clone(), engine.Config{})
	res := eng.RunTimeline(start, p, events)
	eng.Close()

	if !res.Final().Equal(alg, refFinal) {
		t.Fatalf("timeline run diverges from reference\nengine:\n%s\nreference:\n%s",
			res.Final().Format(alg), refFinal.Format(alg))
	}
	st := res.Stats()
	ci, cf := st.CellsComputed, n*(st.RowsComputed+st.RowsSkipped)
	if ci*2 >= cf {
		t.Fatalf("timeline computed %d cells vs %d for full recomputation — expected under half", ci, cf)
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
	res := eng.RunTimeline(start, src, events)

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

// TestTimelineEmptyMatchesRun: with no events, RunTimeline is just Run —
// identical final state and stats, on packed lanes as on the interface
// path.
func TestTimelineEmptyMatchesRun(t *testing.T) {
	alg, adj := meshNet()
	n := adj.N
	start := matrix.Identity(alg, n)
	rng := rand.New(rand.NewSource(5))
	sched := schedule.Random(rng, n, 60, schedule.Options{ActivationProb: 0.5, MaxStaleness: 4})

	e1 := engine.New(alg, adj.Clone(), engine.Config{})
	resT := e1.RunTimeline(start, sched, nil)
	e1.Close()

	e2 := engine.New[algebras.NatInf](unpacked[algebras.NatInf]{alg}, adj.Clone(), engine.Config{})
	resR := e2.Run(start, sched)
	e2.Close()

	if !resT.Final().Equal(alg, resR.Final()) {
		t.Fatal("RunTimeline with no events diverges from Run")
	}
	if resT.Stats() != resR.Stats() {
		t.Fatalf("stats diverge: timeline %+v vs run %+v", resT.Stats(), resR.Stats())
	}
}
