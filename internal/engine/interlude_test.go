package engine_test

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/algebras"
	"repro/internal/async"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/gaorexford"
	"repro/internal/matrix"
	"repro/internal/policy"
	"repro/internal/schedule"
)

// The interlude contract: a run that certifies a fixed point while a
// timeline event is still pending jumps to the event instead of
// evaluating the steps in between, and owes their activations to
// RowsSkipped until Stats is read — and nothing a caller can observe may
// tell the two apart. The oracle is the same run over march(src): it
// never certifies, so it never jumps, and marches every step.

// probe counts what the engine asks of a source, and passes every
// optional capability through: active and beta are pointwise calls, sets
// and rows whole-step ones, counted the steps handed to CountActive. The
// counters are atomic because a fanned-out step draws its activations'
// β values (rows, or beta through the pointwise adapter) on the pool's
// workers.
type probe struct {
	engine.Source
	active, beta, sets, rows, counted tally
}

// tally is one probe counter.
type tally struct{ n atomic.Int64 }

func (c *tally) add(d int) { c.n.Add(int64(d)) }
func (c *tally) get() int  { return int(c.n.Load()) }

func (p *probe) Active(t, i int) bool { p.active.add(1); return p.Source.Active(t, i) }
func (p *probe) Beta(t, i, k int) int { p.beta.add(1); return p.Source.Beta(t, i, k) }
func (p *probe) FairPeriod() int      { return p.Source.(engine.Fair).FairPeriod() }
func (p *probe) ActiveSet(t int, dst []int) []int {
	p.sets.add(1)
	return p.Source.(engine.Batched).ActiveSet(t, dst)
}
func (p *probe) Betas(t, i int, nbr []int32, dst []int) int {
	p.rows.add(1)
	return p.Source.(engine.Batched).Betas(t, i, nbr, dst)
}
func (p *probe) CountActive(t0, t1 int) int {
	p.counted.add(t1 - t0 + 1)
	return p.Source.(engine.Batched).CountActive(t0, t1)
}

// asked is every schedule question short of a range count.
func (p *probe) asked() int { return p.active.get() + p.beta.get() + p.sets.get() + p.rows.get() }

// uncounted is a Fair source with the Batched capability hidden (only
// Source's methods are promoted): the engine must march it, and count its
// interludes, through the pointwise adapter.
type uncounted struct {
	engine.Source
	period int
}

func (u uncounted) FairPeriod() int { return u.period }

// farReach is a Hashed source stating a MaxLookback of a whole fairness
// period: a fixed point never turns absorbing before the run certifies
// it, so the run marches its certified tail instead of jumping it.
type farReach struct{ engine.Hashed }

func (f farReach) MaxLookback() int { return f.FairPeriod() }

// quietFlap is a timeline with long quiet gaps, one event of each kind:
// cut a↔b, restore it with a node restart, invalidate two rows, restart.
func (p pauseNet[R]) quietFlap(at [4]int) []engine.TimelineEvent[R] {
	a, b, n := p.a, p.b, p.adj.N
	ab, _ := p.adj.Edge(a, b)
	ba, _ := p.adj.Edge(b, a)
	return []engine.TimelineEvent[R]{
		{Step: at[0], Invalidate: []int{a, b}, Mutate: func(adj *matrix.Adjacency[R]) {
			adj.RemoveEdge(a, b)
			adj.RemoveEdge(b, a)
		}},
		{Step: at[1], Invalidate: []int{a, b}, Restart: []int{(a + 2) % n}, Mutate: func(adj *matrix.Adjacency[R]) {
			adj.SetEdge(a, b, ab)
			adj.SetEdge(b, a, ba)
		}},
		{Step: at[2], Invalidate: []int{b, (b + 1) % n}},
		{Step: at[3], Restart: []int{a}},
	}
}

// policyRing is the interned-policy family of the pause differentials: a
// 6-node ring with second-neighbour chords, one conditional program on
// every edge.
func policyRing(t *testing.T) pauseNet[policy.IRoute] {
	pol, err := policy.ParsePolicy("addc(2); if (comm(2) & !path(3)) { lp+=7 } else { prepend(1) }")
	if err != nil {
		t.Fatal(err)
	}
	alg := policy.NewInterned(nil)
	adj := matrix.NewAdjacency[policy.IRoute](6)
	for i := 0; i < 6; i++ {
		for _, d := range []int{1, 2} {
			j := (i + d) % 6
			adj.SetEdge(i, j, alg.Edge(i, j, pol))
			adj.SetEdge(j, i, alg.Edge(j, i, pol))
		}
	}
	return pauseNet[policy.IRoute]{alg, adj, 0, 2}
}

// marchTrace is the marching oracle's record: the counters and the state
// after every step, and the finished run.
type marchTrace[R any] struct {
	stats  []engine.Stats
	states []*matrix.State[R]
	res    *engine.Result[R]
}

func marchEveryStep[R any](t *testing.T, p pauseNet[R], src engine.Source, events []engine.TimelineEvent[R]) marchTrace[R] {
	T := src.Horizon()
	eng := engine.New(p.alg, p.adj.Clone(), engine.Config{})
	defer eng.Close()
	st := mustStart(t, eng, matrix.Identity(p.alg, p.adj.N), march(src), events)
	m := marchTrace[R]{stats: make([]engine.Stats, T+1), states: make([]*matrix.State[R], T+1)}
	for k := 1; k <= T; k++ {
		st.Step(k)
		m.stats[k], m.states[k] = st.Stats(), st.State()
	}
	m.res = st.Result()
	return m
}

// jumpAgainstMarch drives the jumping run (the default configuration)
// from one event boundary to the next and requires the marching run's
// counters and state at each: the step before every event, the event
// step, and the end. It returns the jumping run's states at the event
// steps and the finished run.
func jumpAgainstMarch[R any](t *testing.T, label string, p pauseNet[R], src engine.Source,
	events []engine.TimelineEvent[R], m marchTrace[R]) ([]*matrix.State[R], *engine.Result[R]) {
	eng := engine.New(p.alg, p.adj.Clone(), engine.Config{})
	defer eng.Close()
	st := mustStart(t, eng, matrix.Identity(p.alg, p.adj.N), src, events)
	var atEvents []*matrix.State[R]
	for _, ev := range events {
		if st.Step(ev.Step-1) || st.At() != ev.Step-1 {
			t.Fatalf("%s: Step(%d) finished or stopped at %d", label, ev.Step-1, st.At())
		}
		statsMatch(t, fmt.Sprintf("%s before event %d", label, ev.Step), st.Stats(), m.stats[ev.Step-1])
		identicalStates(t, fmt.Sprintf("%s state before event %d", label, ev.Step), st.State(), m.states[ev.Step-1])
		st.Step(ev.Step)
		statsMatch(t, fmt.Sprintf("%s at event %d", label, ev.Step), st.Stats(), m.stats[ev.Step])
		atEvents = append(atEvents, st.State())
		identicalStates(t, fmt.Sprintf("%s state at event %d", label, ev.Step), atEvents[len(atEvents)-1], m.states[ev.Step])
	}
	if !st.Step(src.Horizon()) {
		t.Fatalf("%s: Step to the horizon did not finish", label)
	}
	res := st.Result()
	identicalStates(t, label+" final", res.Final(), m.res.Final())
	// The jumping run stops where it certifies; up to there it did exactly
	// the marching run's work.
	got, want := res.Stats(), m.stats[res.Stats().Steps]
	if got.ConvergedAt < events[len(events)-1].Step || got.Steps >= src.Horizon() {
		t.Fatalf("%s: the run did not certify after the last event: %+v", label, got)
	}
	want.ConvergedAt = got.ConvergedAt
	statsMatch(t, label+" final", got, want)
	return atEvents, res
}

// lastChanges reads off the marching trace, for each event, the last step
// before it at which the state moved — the previous event's step (0 for
// the first) when none did: the run's lastChange when the interlude
// before the event begins.
func (m marchTrace[R]) lastChanges(alg core.Algebra[R], start *matrix.State[R], events []engine.TimelineEvent[R]) []int {
	out := make([]int, len(events))
	at, prev := 0, start
	for e, ev := range events {
		out[e] = at
		for s := at + 1; s < ev.Step; s++ {
			if !m.states[s].Equal(alg, prev) {
				out[e] = s
			}
			prev = m.states[s]
		}
		at, prev = ev.Step, m.states[ev.Step]
	}
	return out
}

// runInterludeJump holds the jumping run to the marching one over the
// quietFlap timeline, on a Hashed source with the given MaxGap and
// MaxStaleness.
func runInterludeJump[R any](t *testing.T, name string, p pauseNet[R], gap, stale int) {
	n := p.adj.N
	const T = 330
	at := [4]int{61, 130, 200, 263}
	events := p.quietFlap(at)
	start := matrix.Identity(p.alg, n)
	// With MaxGap < n several nodes are forced at every step. The ring
	// holds window+1 states; the pauses below land on every residue of it.
	hashed := engine.Hashed{N: n, T: T, Seed: 41, MaxGap: gap, MaxStaleness: stale}

	// The lazy source, counted in closed form.
	marched := marchEveryStep(t, p, hashed, events)
	jp := &probe{Source: hashed}
	fullAt, full := jumpAgainstMarch(t, name+"/hashed", p, jp, events, marched)
	if jp.counted.get() < T/3 {
		t.Fatalf("%s: only %d of %d steps were counted, not marched; the timeline has no interlude to jump", name, jp.counted.get(), T)
	}
	fullSteps := full.Stats().Steps
	// Every step was marched (one ActiveSet), an event, or jumped and
	// counted exactly once by the Stats reads that settled it.
	if jp.sets.get()+len(events)+jp.counted.get() != fullSteps {
		t.Fatalf("%s: %d marched + %d event + %d counted steps, want the run's %d",
			name, jp.sets.get(), len(events), jp.counted.get(), fullSteps)
	}
	if fp, w := hashed.FairPeriod(), hashed.MaxLookback(); fp-1 > w {
		// A jump waits for quiet > window, not for a fairness period: it
		// reaches steps that a run waiting for quiet ≥ FairPeriod()−1
		// would still have marched.
		lc := marched.lastChanges(p.alg, start, events)
		waited, soonest := 0, 0
		for e, ev := range events {
			waited += max(ev.Step-1-(lc[e]+fp-1), 0)
			soonest += max(ev.Step-1-(lc[e]+w+1), 0)
		}
		if jp.counted.get() <= waited || jp.counted.get() > soonest {
			t.Fatalf("%s: %d steps jumped, want more than the %d a fairness-period wait allows and at most %d",
				name, jp.counted.get(), waited, soonest)
		}
	}

	// The same source with the Batched capability hidden: the pointwise
	// adapter must march the same steps and count the same activations.
	_, plain := jumpAgainstMarch(t, name+"/hashed-uncounted", p,
		uncounted{hashed, hashed.FairPeriod()}, events, marched)
	statsMatch(t, name+" counted vs uncounted", plain.Stats(), full.Stats())

	holdToOracle(t, name+"/hashed", p.alg, fullAt, full, async.RunTimelineReference(p.alg, p.adj.Clone(), start, hashed, events), events)

	// A materialised schedule over the whole horizon, β reaching across the
	// events, promising the fairness period it was drawn with: jumping ≡
	// marching ≡ the literal evaluator.
	sched := schedule.Random(rand.New(rand.NewSource(7)), n, T, schedule.Options{MaxGap: gap, MaxStaleness: stale})
	fair := uncounted{sched, hashed.FairPeriod()}
	resAt, res := jumpAgainstMarch(t, name+"/plan", p, fair, events, marchEveryStep(t, p, fair, events))
	holdToOracle(t, name+"/plan", p.alg, resAt, res, async.RunTimelineReference(p.alg, p.adj.Clone(), start, sched, events), events)

	// Pause at every step — until lands inside, at the end of, and one
	// short of every interlude — then at a few later points, each pause
	// held to the marching run's state and counters.
	nextEvent := func(k int) int {
		for _, ev := range events {
			if ev.Step > k {
				return ev.Step
			}
		}
		return T + 1
	}
	for k := 1; k < fullSteps; k++ {
		kl := fmt.Sprintf("%s k=%d", name, k)
		eng := engine.New(p.alg, p.adj.Clone(), engine.Config{})
		st := mustStart(t, eng, start, hashed, events)
		if st.Step(k) || st.At() != k {
			t.Fatalf("%s: Step(k) finished or stopped at %d", kl, st.At())
		}
		statsMatch(t, kl+" paused", st.Stats(), marched.stats[k])
		identicalStates(t, kl+" paused state", st.State(), marched.states[k])
		for _, k2 := range []int{k + 1 + k%7, nextEvent(k) - 2, nextEvent(k) - 1} {
			if k2 <= st.At() || k2 >= fullSteps {
				continue
			}
			if st.Step(k2) || st.At() != k2 {
				t.Fatalf("%s: Step(%d) finished or stopped at %d", kl, k2, st.At())
			}
			statsMatch(t, fmt.Sprintf("%s paused again at %d", kl, k2), st.Stats(), marched.stats[k2])
		}
		st.Step(T)
		live := st.Result()
		eng.Close()
		identicalStates(t, kl+" paused final", live.Final(), full.Final())
		statsMatch(t, kl+" paused final", live.Stats(), full.Stats())
	}
}

func TestInterludeJumpDifferential(t *testing.T) {
	t.Run("hopcount", func(t *testing.T) {
		alg, adj := meshNet()
		runInterludeJump[algebras.NatInf](t, "hopcount", pauseNet[algebras.NatInf]{alg, adj, 0, 6}, 4, 3)
	})
	t.Run("lex", func(t *testing.T) {
		alg, adj, _ := lexNet()
		runInterludeJump(t, "lex", pauseNet[algebras.Pair[algebras.NatInf, algebras.NatInf]]{alg, adj, 1, 2}, 4, 3)
	})
	t.Run("gaorexford", func(t *testing.T) {
		alg, adj, _ := grNet()
		runInterludeJump(t, "gaorexford", pauseNet[gaorexford.Route]{alg, adj, 0, 3}, 4, 3)
	})
	t.Run("policy", func(t *testing.T) {
		runInterludeJump(t, "policy", policyRing(t), 4, 3)
	})
	// A fairness period (16) far beyond the window (3), as on the service's
	// source: the jump may start 11 steps sooner than a period's wait.
	t.Run("hopcount-gap16", func(t *testing.T) {
		alg, adj := meshNet()
		runInterludeJump[algebras.NatInf](t, "hopcount-gap16", pauseNet[algebras.NatInf]{alg, adj, 0, 6}, 16, 3)
	})
}

// TestInterludeJumpCost pins what a jump may cost, and what counting it
// does. Across 10⁶ quiescent steps the jump asks the source nothing — no
// activation, no β, no range count — and allocates nothing, on all three
// lazy sources, so the advance takes time independent of the gap. The
// first Stats afterwards counts exactly the jumped steps, a second asks
// nothing more, and the Result's Stats settle what the run jumped after
// that. It also pins what a marched step may cost: over a Batched source,
// one ActiveSet, one Betas per activation, no pointwise Active or Beta
// call, and no allocation.
func TestInterludeJumpCost(t *testing.T) {
	alg, adj := meshNet()
	n := adj.N
	start := matrix.Identity[algebras.NatInf](alg, n)
	const settle, gap = 400, 1_000_000
	events := []engine.TimelineEvent[algebras.NatInf]{{Step: settle + gap, Restart: []int{3}}}
	const T = settle + gap + 400
	hashed := engine.Hashed{N: n, T: T, Seed: 3, MaxGap: 6, MaxStaleness: 5}

	for _, src := range []engine.Source{engine.Synchronous{N: n, T: T}, engine.RoundRobin{N: n, T: T}, hashed} {
		name := fmt.Sprintf("%T", src)
		eng := engine.New(alg, adj.Clone(), engine.Config{})
		p := &probe{Source: src}
		st := mustStart(t, eng, start, p, events)
		st.Step(settle)
		st.Stats() // what the run jumped before settle
		asked, counted, until := p.asked(), p.counted.get(), settle
		allocs := testing.AllocsPerRun(8, func() {
			until += gap / 10
			if st.Step(until) || st.At() != until {
				t.Fatalf("%s: Step(%d) finished or stopped at %d", name, until, st.At())
			}
		})
		if allocs != 0 || p.asked() != asked || p.counted.get() != counted {
			t.Fatalf("%s: %v allocs/jump, %d Active/β questions and %d counted steps across the interlude; want 0, 0, 0",
				name, allocs, p.asked()-asked, p.counted.get()-counted)
		}
		st.Stats()
		if p.asked() != asked || p.counted.get()-counted != until-settle {
			t.Fatalf("%s: Stats asked %d Active/β questions and counted %d steps, want 0 and the %d jumped",
				name, p.asked()-asked, p.counted.get()-counted, until-settle)
		}
		counted = p.counted.get()
		st.Stats()
		if p.asked() != asked || p.counted.get() != counted {
			t.Fatalf("%s: a second Stats asked the source again", name)
		}
		if !st.Step(T) {
			t.Fatalf("%s: the run did not finish", name)
		}
		res := st.Result()
		eng.Close()
		s := res.Stats()
		if at, ok := res.Converged(); !ok || at < settle+gap {
			t.Fatalf("%s: no certified convergence after the event: %+v", name, s)
		}
		b := src.(engine.Batched)
		if got, want := s.RowsComputed+s.RowsSkipped, b.CountActive(1, s.Steps)-b.CountActive(settle+gap, settle+gap); got != want {
			t.Fatalf("%s: %d activations over %d steps and one event, want %d", name, got, s.Steps, want)
		}
	}

	// No event pending: once the fixed point after the last event is
	// absorbing, the run jumps to where the marching run certifies,
	// lastChange + FairPeriod − 1, asking nothing and allocating nothing;
	// then Stats count exactly the jumped steps. A fairness period (300)
	// far beyond the window (5) leaves a long tail to jump.
	tailSrc := engine.Hashed{N: n, T: 2000, Seed: 3, MaxGap: 300, MaxStaleness: 5}
	tailEvents := []engine.TimelineEvent[algebras.NatInf]{{Step: 40, Restart: []int{3}}}
	te := engine.New(alg, adj.Clone(), engine.Config{Workers: 1})
	tp := &probe{Source: tailSrc}
	ts := mustStart(t, te, start, tp, tailEvents)
	// March one step at a time until a step past the event asks the
	// source nothing: the run has turned absorbing and jumped it.
	for {
		asked := tp.asked()
		if ts.Step(ts.At() + 1) {
			t.Fatalf("tail: the run certified at %d without jumping a step", ts.At())
		}
		if ts.At() > tailEvents[0].Step && tp.asked() == asked {
			break
		}
	}
	ts.Stats() // what the run jumped up to here, the interlude before the event included
	from, asked, counted := ts.At(), tp.asked(), tp.counted.get()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	done := ts.Step(tailSrc.T)
	runtime.ReadMemStats(&after)
	if at := ts.At(); !done || ts.Progress().ConvergedAt < 0 || at >= tailSrc.T {
		t.Fatalf("tail: Step to the horizon from %d stopped at %d, done=%v, %+v; want a certified stop short of it",
			from, at, done, ts.Progress())
	}
	if allocs := after.Mallocs - before.Mallocs; allocs != 0 || tp.asked() != asked || tp.counted.get() != counted {
		t.Fatalf("tail: the jump allocated %d times, asked %d Active/β questions and counted %d steps; want 0, 0, 0",
			allocs, tp.asked()-asked, tp.counted.get()-counted)
	}
	tailRes := ts.Result()
	te.Close()
	tailStats := tailRes.Stats()
	if tp.asked() != asked || tp.counted.get()-counted != tailStats.Steps-from {
		t.Fatalf("tail: Stats asked %d questions and counted %d steps, want 0 and the %d jumped (%d … %d]",
			tp.asked()-asked, tp.counted.get()-counted, tailStats.Steps-from, from, tailStats.Steps)
	}
	if tailStats.Steps != tailStats.ConvergedAt+tailSrc.FairPeriod()-1 {
		t.Fatalf("tail: certified at step %d with the last change at %d, want a fairness period (%d) later",
			tailStats.Steps, tailStats.ConvergedAt, tailSrc.FairPeriod())
	}
	// The oracle states a window of a whole fairness period, so it cannot
	// jump before it certifies: it marches the tail.
	oe := engine.New(alg, adj.Clone(), engine.Config{Workers: 1})
	statsMatch(t, "tail against the marching run", tailStats, playTimeline(t, oe, start, farReach{tailSrc}, tailEvents).Stats())
	oe.Close()

	// The marching run (a run over march(src) never jumps), past its first
	// change wave so the row slabs are warm.
	me := engine.New(alg, adj.Clone(), engine.Config{})
	defer me.Close()
	mp := &probe{Source: hashed}
	ms := mustStart(t, me, start, march(mp), events)
	defer ms.Close()
	ms.Step(settle)
	sets, rows, at := mp.sets.get(), mp.rows.get(), settle
	allocs := testing.AllocsPerRun(50, func() {
		at++
		ms.Step(at)
	})
	steps := at - settle
	if allocs != 0 || mp.active.get()+mp.beta.get() != 0 || mp.counted.get() != 0 || mp.sets.get()-sets != steps || mp.rows.get()-rows < steps {
		t.Fatalf("marched: %v allocs/step, %d pointwise calls, %d ActiveSet and %d Betas calls over %d steps; want 0, 0, one a step, ≥ one a step",
			allocs, mp.active.get()+mp.beta.get(), mp.sets.get()-sets, mp.rows.get()-rows, steps)
	}
}

// TestInterludeJumpServedRequestNeverCounts replays, at the engine, what
// the service does per request (scenario.Runner behind dbfsimd): a
// ring-64 run over the scenario's Hashed source, horizon 4096, one link
// cut at step 4000, stepped in quanta of 64 with At and Progress read
// after each, and Result().Progress() at the end (the result digest).
// That path never counts a jumped activation. The Result's Stats, read
// afterwards — by two goroutines at once — count them all, once: they
// equal the marching run's, through the source's CountActive and through
// the pointwise adapter alike.
func TestInterludeJumpServedRequestNeverCounts(t *testing.T) {
	const n, T, cut = 64, 4096, 4000
	alg := algebras.HopCount{Limit: 31}
	adj := matrix.NewAdjacency[algebras.NatInf](n)
	for i := 0; i < n; i++ {
		adj.SetEdge(i, (i+1)%n, alg.AddEdge(1))
		adj.SetEdge((i+1)%n, i, alg.AddEdge(1))
	}
	events := []engine.TimelineEvent[algebras.NatInf]{{Step: cut, Invalidate: []int{0, 1}, Mutate: func(adj *matrix.Adjacency[algebras.NatInf]) {
		adj.RemoveEdge(0, 1)
		adj.RemoveEdge(1, 0)
	}}}
	start := matrix.Identity[algebras.NatInf](alg, n)
	hashed := engine.Hashed{N: n, T: T, Seed: 1, ActivationProbMille: 600, MaxStaleness: 4}

	serve := func(src engine.Source) *engine.Result[algebras.NatInf] {
		eng := engine.New(alg, adj.Clone(), engine.Config{})
		defer eng.Close()
		st := mustStart(t, eng, start, src, events)
		for done := false; !done; {
			before := st.At()
			done = st.Step(before + 64)
			if p := st.Progress(); p.Steps != st.At() || (!done && p.Steps != before+64) {
				t.Fatalf("quantum from %d: Progress %+v, At %d", before, p, st.At())
			}
		}
		return st.Result()
	}
	p := &probe{Source: hashed}
	res := serve(p)
	if pr := res.Progress(); pr.Steps != T || p.counted.get() != 0 {
		t.Fatalf("the served path ran to step %d of %d and counted %d jumped steps, want %d and 0", pr.Steps, T, p.counted.get(), T)
	}
	// Two readers at once: the result settles what it owes exactly once.
	var wg sync.WaitGroup
	read := make([]engine.Stats, 2)
	for g := range read {
		wg.Add(1)
		go func() {
			defer wg.Done()
			read[g] = res.Stats()
		}()
	}
	wg.Wait()
	got := read[0]
	if read[1] != got || p.counted.get() < cut/2 || p.counted.get() >= T {
		t.Fatalf("Result.Stats read %+v and %+v, counting %d jumped steps; want one answer, and the interlude before the cut",
			read[0], read[1], p.counted.get())
	}

	me := engine.New(alg, adj.Clone(), engine.Config{})
	defer me.Close()
	ms := mustStart(t, me, start, march(hashed), events)
	defer ms.Close()
	ms.Step(T)
	want := ms.Stats()
	statsMatch(t, "served, settled late", got, want)
	statsMatch(t, "served through the pointwise adapter", serve(uncounted{hashed, hashed.FairPeriod()}).Stats(), want)
}

// TestInterludeJumpWaitsForSettledRows: certification is not enough to
// jump. When β can reach further back than a node's activation gap
// (MaxStaleness > MaxGap), a node certified right after the last change
// can recompute once more from a stale read — no change, still certified —
// and then holds a lastRead from before its neighbour's last change; its
// next activation recomputes instead of skipping. The jump has to see
// that (run.settled) and march until the row is read afresh: without the
// check, seed 2 at staleness 12 and seeds 20, 24 and 30 at staleness 8
// count one computed row as skipped.
func TestInterludeJumpWaitsForSettledRows(t *testing.T) {
	alg, adj := meshNet()
	n := adj.N
	start := matrix.Identity[algebras.NatInf](alg, n)
	events := []engine.TimelineEvent[algebras.NatInf]{
		{Step: 40, Restart: []int{3}}, {Step: 80, Restart: []int{5}}, {Step: 120, Restart: []int{7}},
	}
	for seed := uint64(0); seed <= 40; seed++ {
		for _, stale := range []int{8, 12} {
			src := engine.Hashed{N: n, T: 160, Seed: seed, MaxGap: 3, MaxStaleness: stale, ActivationProbMille: 300}
			me := engine.New(alg, adj.Clone(), engine.Config{})
			jump := engine.New(alg, adj.Clone(), engine.Config{})
			ms, js := mustStart(t, me, start, march(src), events), mustStart(t, jump, start, src, events)
			for _, k := range []int{39, 79, 119, 125} {
				ms.Step(k)
				js.Step(k)
				statsMatch(t, fmt.Sprintf("seed %d staleness %d at %d", seed, stale, k), js.Stats(), ms.Stats())
			}
			ms.Close()
			js.Close()
			me.Close()
			jump.Close()
		}
	}
}
