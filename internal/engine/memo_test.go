package engine_test

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/async"
	"repro/internal/engine"
	"repro/internal/matrix"
	"repro/internal/policy"
	"repro/internal/schedule"
)

// The edge-output memo contract: the policy kernel's memo is run-owned
// and starts empty, so a run is bit-identical to the literal evaluator
// whatever run last held its pooled scratch and whatever runs share its
// kernels.

// memoNet is a 10-node ring with chords whose every edge runs one policy
// program, over a private path table.
type memoNet struct {
	prog  string
	alg   *policy.Interned
	adj   *matrix.Adjacency[policy.IRoute]
	start *matrix.State[policy.IRoute]
}

func newMemoNet(t *testing.T, prog string) memoNet {
	t.Helper()
	pol, err := policy.ParsePolicy(prog)
	if err != nil {
		t.Fatal(err)
	}
	const n = 10
	alg := policy.NewInterned(nil)
	adj := matrix.NewAdjacency[policy.IRoute](n)
	for i := 0; i < n; i++ {
		for _, d := range []int{1, 3} {
			j := (i + d) % n
			adj.SetEdge(i, j, alg.Edge(i, j, pol))
			adj.SetEdge(j, i, alg.Edge(j, i, pol))
		}
	}
	return memoNet{prog, alg, adj, matrix.Identity[policy.IRoute](alg, n)}
}

// memoOracle is what a run of one net over one schedule must give: the
// literal evaluator's final state, and the counters of the same run with
// the packing hidden (unpacked) — the interface path, the only run of
// this algebra that keeps no memo: every other, timelines included,
// takes packed lanes and memoises.
type memoOracle struct {
	final *matrix.State[policy.IRoute]
	stats engine.Stats
}

func (m memoNet) oracle(sched *schedule.Schedule) memoOracle {
	ref := async.RunReference[policy.IRoute](m.alg, m.adj, m.start, sched)
	eng := engine.New[policy.IRoute](unpacked[policy.IRoute]{m.alg}, m.adj, engine.Config{Workers: 1})
	defer eng.Close()
	return memoOracle{ref[len(ref)-1], eng.Run(m.start, sched).Stats()}
}

func (o memoOracle) check(t *testing.T, label string, res *engine.Result[policy.IRoute]) {
	t.Helper()
	identicalStates(t, label, res.Final(), o.final)
	statsMatch(t, label, res.Stats(), o.stats)
}

// TestPooledRunsKeepTheirMemo interleaves the runs of two engines of the
// same node count and cell geometry — so they draw on one kind of parked
// scratch — but different programs over different tables: a run whose
// memo still held the other engine's keys would fold the other program's
// outputs wherever a source cell's words coincide, and they do from the
// first step (the identity row). A second leg runs two runs at once on
// one sharded engine, whose kernels they share; under -race a memo kept
// on the kernel is a data race.
func TestPooledRunsKeepTheirMemo(t *testing.T) {
	a := newMemoNet(t, "addc(1); lp+=1")
	b := newMemoNet(t, "if (comm(1) | path(4)) { lp+=5 } else { prepend(2); addc(3) }")
	rng := rand.New(rand.NewSource(7))
	n := a.adj.N
	sched := schedule.Random(rng, n, 120, schedule.Options{MaxGap: 5, MaxStaleness: 4})
	wantA, wantB := a.oracle(sched), b.oracle(sched)
	T := sched.Horizon()

	engA := engine.New[policy.IRoute](a.alg, a.adj, engine.Config{Workers: 1})
	engB := engine.New[policy.IRoute](b.alg, b.adj, engine.Config{Workers: 1})
	defer engA.Close()
	defer engB.Close()
	start := func(eng *engine.Engine[policy.IRoute], m memoNet) *engine.Stepper[policy.IRoute] {
		st := mustStart(t, eng, m.start, sched, nil)
		if cells, set := engine.MemoKeys(st); cells == 0 || set != 0 {
			t.Fatalf("%q: a new run's memo has %d cells, %d keys set; want a cold memo", m.prog, cells, set)
		}
		return st
	}
	finish := func(label string, st *engine.Stepper[policy.IRoute], want memoOracle) {
		t.Helper()
		st.Step(T)
		if _, set := engine.MemoKeys(st); set == 0 {
			t.Fatalf("%s: the run never wrote its memo", label)
		}
		want.check(t, label, st.Result())
	}

	sa := start(engA, a)
	sa.Step(T / 3)
	sb := start(engB, b)
	finish("A whole", sa, wantA) // parks A's warm memo
	sb.Step(T / 2)
	sb2 := start(engB, b) // takes the scratch A parked
	finish("B on A's scratch", sb2, wantB)
	finish("B paused while A ran", sb, wantB)
	sa2 := start(engA, a) // takes the scratch B parked
	sa2.Step(T / 4)
	sa2.Close() // parks a memo mid-run
	sb3 := start(engB, b)
	finish("B after A's abandoned run", sb3, wantB)
	sa3 := start(engA, a)
	finish("A after B", sa3, wantA)

	// Two concurrent runs on one sharded engine, on different schedules.
	shared := engine.NewSharded[policy.IRoute](a.alg, a.adj, engine.Config{Workers: 4})
	defer shared.Close()
	scheds := []*schedule.Schedule{sched, schedule.Random(rng, n, 120, schedule.Options{MaxGap: 7, MaxStaleness: 6})}
	wants := []memoOracle{wantA, a.oracle(scheds[1])}
	var wg sync.WaitGroup
	ready := make(chan struct{})
	results := make([][]*engine.Result[policy.IRoute], len(scheds))
	for g := range scheds {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-ready
			for rep := 0; rep < 6; rep++ {
				results[g] = append(results[g], shared.Run(a.start, scheds[g]))
			}
		}()
	}
	close(ready)
	wg.Wait()
	for g, rs := range results {
		for rep, res := range rs {
			wants[g].check(t, fmt.Sprintf("concurrent run %d rep %d", g, rep), res)
		}
	}
}
