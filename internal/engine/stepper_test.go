package engine_test

import (
	"fmt"
	"testing"

	"repro/internal/algebras"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/gaorexford"
	"repro/internal/matrix"
)

// The preemption contract: a timeline run chopped into quanta must be
// bit-identical, in cells and counters, to the run that was never
// paused. This holds both when one live stepper is advanced quantum by
// quantum (in-process preemption: a pause is a return from Step) and
// when every quantum ends with the run dropped and a fresh engine over a
// fresh topology replaying it to the pause (the restart path a service
// takes: durability is replay).

// flapEvents is a link-flap timeline over meshNet: cut a chord, restore
// it, cut another, then restore it with a node restart. The Mutate
// closures take the adjacency as a parameter, so one event list replays
// onto any number of fresh topologies.
func flapEvents(alg algebras.HopCount) []engine.TimelineEvent[algebras.NatInf] {
	set := func(i, j int, up bool) func(adj *matrix.Adjacency[algebras.NatInf]) {
		return func(adj *matrix.Adjacency[algebras.NatInf]) {
			if up {
				adj.SetEdge(i, j, alg.AddEdge(1))
				adj.SetEdge(j, i, alg.AddEdge(1))
			} else {
				adj.SetEdge(i, j, nil)
				adj.SetEdge(j, i, nil)
			}
		}
	}
	return []engine.TimelineEvent[algebras.NatInf]{
		{Step: 20, Mutate: set(0, 6, false), Invalidate: []int{0, 6}},
		{Step: 45, Mutate: set(0, 6, true), Invalidate: []int{0, 6}},
		{Step: 70, Mutate: set(3, 9, false), Invalidate: []int{3, 9}},
		{Step: 95, Mutate: set(3, 9, true), Invalidate: []int{3, 9}, Restart: []int{2}},
	}
}

// mustStart is Start for a source and timeline the test knows to fit the
// engine.
func mustStart[R any](t testing.TB, eng *engine.Engine[R], start *matrix.State[R], src engine.Source, events []engine.TimelineEvent[R]) *engine.Stepper[R] {
	t.Helper()
	st, err := eng.Start(start, src, events)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// playTimeline runs a timeline to its end: Start, Step to the horizon,
// Result.
func playTimeline[R any](t testing.TB, eng *engine.Engine[R], start *matrix.State[R], src engine.Source, events []engine.TimelineEvent[R]) *engine.Result[R] {
	t.Helper()
	st := mustStart(t, eng, start, src, events)
	st.Step(src.Horizon())
	return st.Result()
}

func TestTimelineSnapshotSlicedDifferential(t *testing.T) {
	alg, _ := meshNet()
	events := flapEvents(alg)
	const T = 140
	n := 12
	src := engine.Hashed{N: n, T: T, Seed: 23, MaxGap: 6, MaxStaleness: 5}
	start := matrix.Identity[algebras.NatInf](alg, n)

	for _, quantum := range []int{7, 17, 50} {
		label := fmt.Sprintf("quantum=%d", quantum)

		// The uninterrupted run.
		_, fullAdj := meshNet()
		fullEng := engine.New(alg, fullAdj, engine.Config{})
		full := playTimeline(t, fullEng, start, src, events)
		fullEng.Close()

		// In-process preemption: one engine, one stepper, sliced; the
		// adjacency accumulates the events' mutations as they play.
		_, adj := meshNet()
		eng := engine.New(alg, adj, engine.Config{})
		st := mustStart(t, eng, start, src, events)
		slices := 0
		for done := false; !done; slices++ {
			done = st.Step(st.At() + quantum)
		}
		if slices < 2 {
			t.Fatalf("%s: run never sliced (quantum too big for horizon?)", label)
		}
		res := st.Result()
		identicalStates(t, label+" sliced final", res.Final(), full.Final())
		statsMatch(t, label+" sliced", res.Stats(), full.Stats())
		eng.Close()

		// Replay: after every slice the run is dropped, and a FRESH engine
		// over a FRESH topology starts again and steps to the pause —
		// what a daemon does with a spooled scenario after a restart —
		// and must stand exactly where the dropped run stood.
		_, adj0 := meshNet()
		e2 := engine.New(alg, adj0, engine.Config{})
		st = mustStart(t, e2, start, src, events)
		for !st.Step(st.At() + quantum) {
			at, state, stats := st.At(), st.State(), st.Stats()
			st.Close()
			e2.Close()
			_, fresh := meshNet()
			e2 = engine.New(alg, fresh, engine.Config{})
			st = mustStart(t, e2, start, src, events)
			if st.Step(at) || st.At() != at {
				t.Fatalf("%s: the replay of %d steps finished or stopped at %d", label, at, st.At())
			}
			identicalStates(t, fmt.Sprintf("%s replayed to %d", label, at), st.State(), state)
			statsMatch(t, fmt.Sprintf("%s replayed to %d", label, at), st.Stats(), stats)
		}
		res = st.Result()
		e2.Close()
		identicalStates(t, label+" replayed final", res.Final(), full.Final())
		statsMatch(t, label+" replayed", res.Stats(), full.Stats())
	}
}

// TestStepperStateLifecycle: State is the start state at step 0, the
// post-event state at an event step and the final state once the run has
// ended; a closed run has none.
func TestStepperStateLifecycle(t *testing.T) {
	alg, adj := meshNet()
	events := flapEvents(alg)
	src := engine.Hashed{N: 12, T: 140, Seed: 23, MaxGap: 6, MaxStaleness: 5}
	start := matrix.Identity[algebras.NatInf](alg, 12)
	eng := engine.New(alg, adj, engine.Config{})
	defer eng.Close()

	st := mustStart(t, eng, start, src, events)
	identicalStates(t, "step 0", st.State(), start)
	st.Step(20)
	atEvent := st.State()
	if !st.Step(140) {
		t.Fatal("Step to the horizon did not finish the run")
	}
	res := st.Result()
	identicalStates(t, "event step 20", atEvent, res.Marks()[0])
	identicalStates(t, "after Result", st.State(), res.Final())
	if st.Result() != res || !st.Step(140) || st.At() != res.Stats().Steps {
		t.Fatal("an ended stepper must keep reporting its one result")
	}
	st.Close() // no-op after Result

	// A closed run has no result and no state; a run that certified
	// convergence stands at its fixed point.
	ks := mustStart(t, eng, start, src, nil)
	ks.Step(5)
	ks.Close()
	if ks.Result() != nil || ks.State() != nil {
		t.Fatal("a closed stepper returned a result or a state")
	}
	cs := mustStart(t, eng, start, src, nil)
	cs.Step(140)
	if cs.Stats().ConvergedAt < 0 {
		t.Fatal("event-free hop-count run did not certify convergence")
	}
	fixed := cs.State()
	identicalStates(t, "certified", fixed, cs.Result().Final())
}

// pauseNet is one carrier family for the pause-at-every-step
// differential: a pristine topology (every engine evaluates a Clone) and
// an edge pair (a, b) for the flap timeline to cut and restore.
type pauseNet[R any] struct {
	alg  core.Algebra[R]
	adj  *matrix.Adjacency[R]
	a, b int
}

// flap builds a generic timeline over the net: cut a↔b, restore it with
// a node restart, and — on the very next step, so two event steps abut —
// restart another node.
func (p pauseNet[R]) flap() []engine.TimelineEvent[R] {
	a, b, n := p.a, p.b, p.adj.N
	ab, _ := p.adj.Edge(a, b)
	ba, _ := p.adj.Edge(b, a)
	return []engine.TimelineEvent[R]{
		{Step: 9, Invalidate: []int{a, b}, Mutate: func(adj *matrix.Adjacency[R]) {
			adj.RemoveEdge(a, b)
			adj.RemoveEdge(b, a)
		}},
		{Step: 23, Invalidate: []int{a, b}, Restart: []int{(a + 2) % n}, Mutate: func(adj *matrix.Adjacency[R]) {
			adj.SetEdge(a, b, ab)
			adj.SetEdge(b, a, ba)
		}},
		{Step: 24, Restart: []int{b}},
	}
}

// runPauseAtEveryStep checks, for every k in [1, T): Step(k) leaves the
// run at the state and Stats the single-stepped run had at k, and
// Step(T) after it equals the uninterrupted run in final state and Stats.
func runPauseAtEveryStep[R any](t *testing.T, name string, p pauseNet[R]) {
	n := p.adj.N
	const horizon = 60
	hashed := engine.Hashed{N: n, T: horizon, Seed: 41, MaxGap: 4, MaxStaleness: 3}
	start := matrix.Identity(p.alg, n)

	for _, cfg := range []struct {
		label  string
		alg    core.Algebra[R]
		events []engine.TimelineEvent[R]
		src    engine.Source
	}{
		{"events", p.alg, p.flap(), hashed},
		// The same run with the source's Batched capability hidden, so
		// every pause goes through the pointwise adapter.
		{"events-pointwise", p.alg, p.flap(), uncounted{hashed, hashed.FairPeriod()}},
		// Event-free runs, on both row representations: packed lanes
		// wherever the algebra packs, []R slices with the packing hidden.
		{"columnar", p.alg, nil, hashed},
		{"interface", unpacked[R]{p.alg}, nil, hashed},
	} {
		label, src := name+"/"+cfg.label, cfg.src
		// Event-free runs of a memoising algebra (the interned policy
		// algebra) run the edge-output memo path; no other run keeps one.
		_, memoiser := cfg.alg.(core.EdgeMemoizer)
		memoised := memoiser && cfg.events == nil
		memoCheck := func(kl string, st *engine.Stepper[R]) (set int) {
			t.Helper()
			cells, set := engine.MemoKeys(st)
			switch {
			case !memoised && cells != 0:
				t.Fatalf("%s: a run without a memoising kernel has %d memo cells", kl, cells)
			case memoised && cells == 0:
				t.Fatalf("%s: the policy run has no memo", kl)
			}
			return set
		}
		fullEng := engine.New(cfg.alg, p.adj.Clone(), engine.Config{})
		full := playTimeline(t, fullEng, start, src, cfg.events)
		fullEng.Close()
		T := full.Stats().Steps
		if T < 5 || (cfg.events != nil && T < 30) {
			t.Fatalf("%s: uninterrupted run took only %d steps; the differential needs a longer one", label, T)
		}

		// Every step its own Step call, the state and counters recorded.
		eng := engine.New(cfg.alg, p.adj.Clone(), engine.Config{})
		st := mustStart(t, eng, start, src, cfg.events)
		states, stats := []*matrix.State[R]{start}, []engine.Stats{st.Stats()}
		for k := 1; !st.Step(k); k++ {
			if st.At() != k {
				t.Fatalf("%s: Step(%d) left the run at %d", label, k, st.At())
			}
			states, stats = append(states, st.State()), append(stats, st.Stats())
		}
		if set := memoCheck(label+" single-stepped", st); memoised && set == 0 {
			t.Fatalf("%s: the single-stepped run never wrote its memo", label)
		}
		res := st.Result()
		identicalStates(t, label+" single-stepped final", res.Final(), full.Final())
		statsMatch(t, label+" single-stepped", res.Stats(), full.Stats())
		eng.Close()

		for k := 1; k < T; k++ {
			kl := fmt.Sprintf("%s k=%d", label, k)
			eng := engine.New(cfg.alg, p.adj.Clone(), engine.Config{})
			st := mustStart(t, eng, start, src, cfg.events)
			if st.Step(k) || st.At() != k {
				t.Fatalf("%s: Step(k) finished or stopped at %d", kl, st.At())
			}
			identicalStates(t, kl+" paused state", st.State(), states[k])
			statsMatch(t, kl+" paused", st.Stats(), stats[k])
			memoCheck(kl+" paused", st)
			if !st.Step(horizon) {
				t.Fatalf("%s: Step to the horizon did not finish", kl)
			}
			live := st.Result()
			eng.Close()
			identicalStates(t, kl+" paused final", live.Final(), full.Final())
			statsMatch(t, kl+" paused", live.Stats(), full.Stats())
		}
	}
}

func TestStepperPauseAtEveryStep(t *testing.T) {
	t.Run("hopcount", func(t *testing.T) {
		alg, adj := meshNet()
		runPauseAtEveryStep[algebras.NatInf](t, "hopcount", pauseNet[algebras.NatInf]{alg, adj, 0, 6})
	})
	t.Run("lex", func(t *testing.T) {
		alg, adj, _ := lexNet()
		runPauseAtEveryStep(t, "lex", pauseNet[algebras.Pair[algebras.NatInf, algebras.NatInf]]{alg, adj, 1, 2})
	})
	t.Run("gaorexford", func(t *testing.T) {
		alg, adj, _ := grNet()
		runPauseAtEveryStep(t, "gaorexford", pauseNet[gaorexford.Route]{alg, adj, 0, 3})
	})
	t.Run("policy", func(t *testing.T) {
		runPauseAtEveryStep(t, "policy", policyRing(t))
	})
}

// TestStartRejectsBadShapes: a start state, source or timeline that does
// not fit the engine is an error from Start, never a wedged or silently
// wrong run.
func TestStartRejectsBadShapes(t *testing.T) {
	alg, adj := meshNet()
	events := flapEvents(alg)
	start := matrix.Identity[algebras.NatInf](alg, 12)
	src := engine.Hashed{N: 12, T: 140, Seed: 23, MaxGap: 6, MaxStaleness: 5}
	eng := engine.New(alg, adj, engine.Config{})
	defer eng.Close()

	for name, bad := range map[string]struct {
		start  *matrix.State[algebras.NatInf]
		src    engine.Source
		events []engine.TimelineEvent[algebras.NatInf]
	}{
		"node count":           {start, engine.Hashed{N: 11, T: 140, Seed: 23}, nil},
		"start state":          {matrix.Identity[algebras.NatInf](alg, 11), src, nil},
		"event order":          {start, src, []engine.TimelineEvent[algebras.NatInf]{{Step: 30, Restart: []int{1}}, {Step: 30, Restart: []int{2}}}},
		"event past":           {start, src, []engine.TimelineEvent[algebras.NatInf]{{Step: 141, Restart: []int{1}}}},
		"restart out of range": {start, src, []engine.TimelineEvent[algebras.NatInf]{{Step: 30, Restart: []int{12}}}},
		// A source stating a bound below one step: no ring can be that
		// shallow, no period that short.
		"MaxLookback": {start, lookback{src, 0}, events},
		"FairPeriod":  {start, uncounted{src, 0}, events},
	} {
		if st, err := eng.Start(bad.start, bad.src, bad.events); err == nil {
			st.Close()
			t.Errorf("Start accepted a wrong %s", name)
		}
	}

	// The engine is still usable after a refused start.
	st := mustStart(t, eng, start, src, nil)
	st.Step(140)
	if st.Result().Stats().ConvergedAt < 0 {
		t.Fatal("run after refused starts did not converge")
	}
}

// TestResumeRejectsBadShapes pins the validation surface of resuming,
// which is replay: Start from the snapshot's start state and Step to its
// step. A snapshot or source that does not fit the run is a clean error
// from Restore, and a replay target in the past is a no-op, never a
// wedged or silently wrong run.
func TestResumeRejectsBadShapes(t *testing.T) {
	alg, adj := meshNet()
	events := flapEvents(alg)
	n := 12
	src := engine.Hashed{N: n, T: 140, Seed: 23, MaxGap: 6, MaxStaleness: 5}
	start := matrix.Identity[algebras.NatInf](alg, n)
	eng := engine.New(alg, adj, engine.Config{})
	defer eng.Close()

	// A target at or before the current step is in the past: nothing
	// runs, and the run is not done.
	st := mustStart(t, eng, start, src, events)
	if st.Step(45) || st.At() != 45 {
		t.Fatalf("Step(45) left the run at %d", st.At())
	}
	before := st.Stats()
	if st.Step(30) || st.Step(45) || st.Stats() != before {
		t.Fatalf("Step into the past moved the run: %+v → %+v", before, st.Stats())
	}
	st.Close()

	// A snapshot that does not fit the run is an error from Restore,
	// whatever is wrong with it.
	_, snap := eng.RunSnapshot(start, src, 3, true)
	if snap == nil || snap.Step != 3 {
		t.Fatal("no snapshot at step 3")
	}
	for name, mutate := range map[string]func(s *engine.Snapshot[algebras.NatInf]){
		"node count": func(s *engine.Snapshot[algebras.NatInf]) { s.Start = matrix.Identity[algebras.NatInf](alg, n+1) },
		"step zero":  func(s *engine.Snapshot[algebras.NatInf]) { s.Step = 0 },
		"step":       func(s *engine.Snapshot[algebras.NatInf]) { s.Step = 141 },
	} {
		bad := *snap
		mutate(&bad)
		if _, err := eng.Restore(&bad, src); err == nil {
			t.Errorf("Restore accepted a snapshot with a wrong %s", name)
		}
	}
	// A source stating a bound below one step is an error from Restore
	// as from Start: no ring can be that shallow, no period that short.
	for name, bad := range map[string]engine.Source{
		"MaxLookback": lookback{src, 0},
		"FairPeriod":  uncounted{src, 0},
	} {
		if _, err := eng.Restore(snap, bad); err == nil {
			t.Errorf("Restore accepted a source with %s 0", name)
		}
	}

	// The engine still resumes after refused restores.
	res, err := eng.Restore(snap, src)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats().ConvergedAt < 0 {
		t.Fatal("restore after refused ones did not converge")
	}
}
