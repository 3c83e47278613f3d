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
// when every quantum ends in a Snapshot that a fresh engine resumes from
// a fresh adjacency with the fired events' mutations replayed (the
// cross-process drain / restart path a checkpointing service takes).

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

// remainingEvents returns the suffix of events strictly after step.
func remainingEvents[R any](events []engine.TimelineEvent[R], step int) []engine.TimelineEvent[R] {
	i := 0
	for i < len(events) && events[i].Step <= step {
		i++
	}
	return events[i:]
}

// replayFired applies the mutations of every event at or before step to
// a fresh topology, bringing it to the instant a snapshot was taken.
func replayFired[R any](adj *matrix.Adjacency[R], events []engine.TimelineEvent[R], step int) {
	for _, ev := range events {
		if ev.Step > step {
			break
		}
		if ev.Mutate != nil {
			ev.Mutate(adj)
		}
	}
}

// nextQuantumEnd picks the step a slice should pause at: quantum steps
// past from, bumped past any event step (an event step performs no
// activation, so there is nothing to snapshot after it).
func nextQuantumEnd(from, quantum, T int, isEvent map[int]bool) int {
	at := from + quantum
	for at < T && isEvent[at] {
		at++
	}
	return at
}

func TestTimelineSnapshotSlicedDifferential(t *testing.T) {
	alg, _ := meshNet()
	events := flapEvents(alg)
	isEvent := map[int]bool{}
	for _, ev := range events {
		isEvent[ev.Step] = true
	}
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
			done = st.Step(nextQuantumEnd(st.At(), quantum, T, isEvent))
		}
		if slices < 2 {
			t.Fatalf("%s: run never sliced (quantum too big for horizon?)", label)
		}
		res := st.Result()
		identicalStates(t, label+" sliced final", res.Final(), full.Final())
		statsMatch(t, label+" sliced", res.Stats(), full.Stats())
		eng.Close()

		// Cross-process resume: every slice ends in a Snapshot and the
		// next resumes on a FRESH engine over a FRESH topology with the
		// already-fired events' mutations replayed — exactly what a
		// daemon does when it reloads a spooled checkpoint after a
		// restart.
		_, adj0 := meshNet()
		e2 := engine.New(alg, adj0, engine.Config{})
		st = mustStart(t, e2, start, src, events)
		for !st.Step(nextQuantumEnd(st.At(), quantum, T, isEvent)) {
			snap, err := st.Snapshot()
			if err != nil {
				t.Fatalf("%s: snapshot at %d: %v", label, st.At(), err)
			}
			st.Close()
			e2.Close()
			_, fresh := meshNet()
			replayFired(fresh, events, snap.Step)
			e2 = engine.New(alg, fresh, engine.Config{})
			if st, err = e2.Resume(snap, src, remainingEvents(events, snap.Step)); err != nil {
				t.Fatalf("%s: fresh-engine resume: %v", label, err)
			}
		}
		res = st.Result()
		e2.Close()
		identicalStates(t, label+" fresh-engine final", res.Final(), full.Final())
		statsMatch(t, label+" fresh-engine", res.Stats(), full.Stats())
	}
}

// TestResumeRejectsBadShapes pins the validation surface of the resume
// primitive: stale events, event-step snapshots and targets in the past
// must be clean errors or no-ops, never a wedged or silently wrong run.
func TestResumeRejectsBadShapes(t *testing.T) {
	alg, _ := meshNet()
	events := flapEvents(alg)
	n := 12
	src := engine.Hashed{N: n, T: 140, Seed: 23, MaxGap: 6, MaxStaleness: 5}
	start := matrix.Identity[algebras.NatInf](alg, n)

	_, adj := meshNet()
	eng := engine.New(alg, adj, engine.Config{})
	defer eng.Close()
	st := mustStart(t, eng, start, src, events)
	defer st.Close()
	if st.Step(30) || st.At() != 30 {
		t.Fatalf("Step(30) left the run at %d", st.At())
	}
	snap, err := st.Snapshot()
	if err != nil || snap.Step != 30 {
		t.Fatalf("no snapshot at step 30: %v", err)
	}

	// An event at or before the snapshot step can never fire again; the
	// caller must pass only the remaining suffix.
	if _, err := eng.Resume(snap, src, events); err == nil {
		t.Fatal("Resume accepted an already-fired event")
	}
	// A snapshot on an event step has no activation to capture.
	if st.Step(45) || st.At() != 45 {
		t.Fatalf("Step(45) left the run at %d", st.At())
	}
	if _, err := st.Snapshot(); err == nil {
		t.Fatal("Snapshot accepted an event step")
	}
	// A target at or before the current step is in the past: nothing
	// runs, and the run is not done.
	before := st.Stats()
	if st.Step(30) || st.Step(45) || st.Stats() != before {
		t.Fatalf("Step into the past moved the run: %+v → %+v", before, st.Stats())
	}
	// A decoded snapshot that does not fit the run is an error from
	// Resume, whatever is wrong with it.
	for name, mutate := range map[string]func(s *engine.Snapshot[algebras.NatInf]){
		"node count": func(s *engine.Snapshot[algebras.NatInf]) { s.N = n + 1 },
		"window":     func(s *engine.Snapshot[algebras.NatInf]) { s.Window++ },
		"step":       func(s *engine.Snapshot[algebras.NatInf]) { s.Step = 141 },
		"states":     func(s *engine.Snapshot[algebras.NatInf]) { s.States = s.States[1:] },
		"matrices": func(s *engine.Snapshot[algebras.NatInf]) {
			s.Ver, s.LastComp, s.LastRead = nil, nil, nil
		},
		"certifying":  func(s *engine.Snapshot[algebras.NatInf]) { s.Certified = nil },
		"last change": func(s *engine.Snapshot[algebras.NatInf]) { s.LastChange = s.Step + 1 },
	} {
		bad := *snap
		mutate(&bad)
		if _, err := eng.Resume(&bad, src, remainingEvents(events, 30)); err == nil {
			t.Fatalf("Resume accepted a snapshot with a wrong %s", name)
		}
	}
	// A source stating a bound below one step is an error from Start and
	// from Resume alike: no ring can be that shallow, no period that short.
	for name, bad := range map[string]engine.Source{
		"MaxLookback": lookback{src, 0},
		"FairPeriod":  uncounted{src, 0},
	} {
		if st, err := eng.Start(start, bad, events); err == nil {
			st.Close()
			t.Errorf("Start accepted a source with %s 0", name)
		}
		if rs, err := eng.Resume(snap, bad, remainingEvents(events, 30)); err == nil {
			rs.Close()
			t.Errorf("Resume accepted a source with %s 0", name)
		}
	}
}

// TestStepperSnapshotLifecycle: a snapshot exists only for a run that
// has started, is between activation steps, and still holds its scratch;
// everywhere else Snapshot is a clean error.
func TestStepperSnapshotLifecycle(t *testing.T) {
	alg, adj := meshNet()
	events := flapEvents(alg)
	src := engine.Hashed{N: 12, T: 140, Seed: 23, MaxGap: 6, MaxStaleness: 5}
	start := matrix.Identity[algebras.NatInf](alg, 12)
	eng := engine.New(alg, adj, engine.Config{})
	defer eng.Close()

	st := mustStart(t, eng, start, src, events)
	if _, err := st.Snapshot(); err == nil {
		t.Fatal("Snapshot at step 0 succeeded")
	}
	st.Step(20)
	if _, err := st.Snapshot(); err == nil {
		t.Fatal("Snapshot at an event step succeeded")
	}
	st.Step(21)
	if _, err := st.Snapshot(); err != nil {
		t.Fatalf("Snapshot after an activation step: %v", err)
	}
	if !st.Step(140) {
		t.Fatal("Step to the horizon did not finish the run")
	}
	res := st.Result()
	if _, err := st.Snapshot(); err == nil {
		t.Fatal("Snapshot after Result succeeded")
	}
	if st.Result() != res || !st.Step(140) || st.At() != res.Stats().Steps {
		t.Fatal("an ended stepper must keep reporting its one result")
	}
	st.Close() // no-op after Result

	// A closed run has no result, and a run that certified convergence
	// has no continuation.
	ks := mustStart(t, eng, start, src, nil)
	ks.Step(5)
	ks.Close()
	if ks.Result() != nil {
		t.Fatal("Result after Close returned a result")
	}
	cs := mustStart(t, eng, start, src, nil)
	cs.Step(140)
	if cs.Stats().ConvergedAt < 0 {
		t.Fatal("event-free hop-count run did not certify convergence")
	}
	if _, err := cs.Snapshot(); err == nil {
		t.Fatal("Snapshot of a converged run succeeded")
	}
	cs.Close()
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

// runPauseAtEveryStep checks, for every k in [1, T): Step(k) then
// Step(T) equals the uninterrupted run in final state and Stats, and —
// wherever a snapshot exists — Snapshot() at k resumed on a fresh engine
// over a fresh topology equals the live stepper that kept going.
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
		// every pause and resume goes through the pointwise adapter.
		{"events-pointwise", p.alg, p.flap(), uncounted{hashed, hashed.FairPeriod()}},
		// Event-free runs, on both row representations: packed lanes
		// wherever the algebra packs, []R slices with the packing hidden.
		{"columnar", p.alg, nil, hashed},
		{"interface", unpacked[R]{p.alg}, nil, hashed},
	} {
		label, src := name+"/"+cfg.label, cfg.src
		isEvent := map[int]bool{}
		for _, ev := range cfg.events {
			isEvent[ev.Step] = true
		}
		// Event-free runs of a memoising algebra (the interned policy
		// algebra) run the edge-output memo path, a run resumed past the
		// last event included; no other run keeps one.
		_, memoiser := cfg.alg.(core.EdgeMemoizer)
		memoised := memoiser && cfg.events == nil
		memoCheck := func(kl string, st *engine.Stepper[R], hasMemo, cold bool) (set int) {
			t.Helper()
			cells, set := engine.MemoKeys(st)
			switch {
			case !hasMemo && cells != 0:
				t.Fatalf("%s: a run without a memoising kernel has %d memo cells", kl, cells)
			case hasMemo && cells == 0:
				t.Fatalf("%s: the policy run has no memo", kl)
			case cold && set != 0:
				t.Fatalf("%s: a resumed run's memo has %d keys set; want it cold", kl, set)
			}
			return set
		}
		warmResumes := 0
		fullEng := engine.New(cfg.alg, p.adj.Clone(), engine.Config{})
		full := playTimeline(t, fullEng, start, src, cfg.events)
		fullEng.Close()
		T := full.Stats().Steps
		if T < 5 || (cfg.events != nil && T < 30) {
			t.Fatalf("%s: uninterrupted run took only %d steps; the differential needs a longer one", label, T)
		}

		// Every step its own Step call.
		eng := engine.New(cfg.alg, p.adj.Clone(), engine.Config{})
		st := mustStart(t, eng, start, src, cfg.events)
		for k := 1; !st.Step(k); k++ {
			if st.At() != k {
				t.Fatalf("%s: Step(%d) left the run at %d", label, k, st.At())
			}
		}
		if set := memoCheck(label+" single-stepped", st, memoised, false); memoised && set == 0 {
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
			paused := st.Stats()
			snap, err := st.Snapshot()
			if (err != nil) != isEvent[k] {
				t.Fatalf("%s: Snapshot error %v, event step %v", kl, err, isEvent[k])
			}
			if !st.Step(horizon) {
				t.Fatalf("%s: Step to the horizon did not finish", kl)
			}
			live := st.Result()
			eng.Close()
			identicalStates(t, kl+" paused final", live.Final(), full.Final())
			statsMatch(t, kl+" paused", live.Stats(), full.Stats())
			if snap == nil {
				continue
			}

			fresh := p.adj.Clone()
			replayFired(fresh, cfg.events, k)
			e2 := engine.New(cfg.alg, fresh, engine.Config{})
			rest := remainingEvents(cfg.events, k)
			rs, err := e2.Resume(snap, src, rest)
			if err != nil {
				t.Fatalf("%s: resume: %v", kl, err)
			}
			if rs.At() != k {
				t.Fatalf("%s: resumed at %d", kl, rs.At())
			}
			statsMatch(t, kl+" at resume", rs.Stats(), paused)
			memoCheck(kl+" at resume", rs, memoiser && len(rest) == 0, true)
			rs.Step(horizon)
			if memoCheck(kl+" resumed", rs, memoiser && len(rest) == 0, false) > 0 {
				warmResumes++
			}
			resumed := rs.Result()
			e2.Close()
			identicalStates(t, kl+" resumed final", resumed.Final(), live.Final())
			statsMatch(t, kl+" resumed", resumed.Stats(), live.Stats())
		}
		if memoiser && warmResumes == 0 {
			t.Fatalf("%s: no run resumed from a snapshot wrote its memo", label)
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

// TestStartRejectsBadShapes: a source or timeline that does not fit the
// engine is an error from Start, as it is from Resume.
func TestStartRejectsBadShapes(t *testing.T) {
	alg, adj := meshNet()
	start := matrix.Identity[algebras.NatInf](alg, 12)
	src := engine.Hashed{N: 12, T: 140, Seed: 23, MaxGap: 6, MaxStaleness: 5}
	eng := engine.New(alg, adj, engine.Config{})
	defer eng.Close()

	for name, bad := range map[string]struct {
		src    engine.Source
		events []engine.TimelineEvent[algebras.NatInf]
	}{
		"node count":           {engine.Hashed{N: 11, T: 140, Seed: 23}, nil},
		"event order":          {src, []engine.TimelineEvent[algebras.NatInf]{{Step: 30, Restart: []int{1}}, {Step: 30, Restart: []int{2}}}},
		"event past":           {src, []engine.TimelineEvent[algebras.NatInf]{{Step: 141, Restart: []int{1}}}},
		"restart out of range": {src, []engine.TimelineEvent[algebras.NatInf]{{Step: 30, Restart: []int{12}}}},
	} {
		if st, err := eng.Start(start, bad.src, bad.events); err == nil {
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
