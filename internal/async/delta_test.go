package async

import (
	"math/rand"
	"testing"

	"repro/internal/algebras"
	"repro/internal/matrix"
	"repro/internal/pathalg"
	"repro/internal/paths"
	"repro/internal/policy"
	"repro/internal/schedule"
)

// ripNet is a 4-node ring with a filtered chord over bounded hop count.
func ripNet() (algebras.HopCount, *matrix.Adjacency[algebras.NatInf]) {
	alg := algebras.HopCount{Limit: 7}
	adj := matrix.NewAdjacency[algebras.NatInf](4)
	link := func(i, j int, w algebras.NatInf) {
		adj.SetEdge(i, j, alg.AddEdge(w))
		adj.SetEdge(j, i, alg.AddEdge(w))
	}
	link(0, 1, 1)
	link(1, 2, 1)
	link(2, 3, 1)
	link(3, 0, 1)
	adj.SetEdge(0, 2, alg.ConditionalEdge(1, algebras.DistanceAtMost(3)))
	return alg, adj
}

func TestSynchronousScheduleRecoversSigma(t *testing.T) {
	// Section 3.1: δ with α = all nodes, β = t−1 is exactly σ.
	alg, adj := ripNet()
	start := matrix.Identity[algebras.NatInf](alg, 4)
	sched := schedule.Synchronous(4, 8)
	history := RunReference[algebras.NatInf](alg, adj, start, sched)
	x := start.Clone()
	for tt := 1; tt <= 8; tt++ {
		x = matrix.Sigma[algebras.NatInf](alg, adj, x)
		if !history[tt].Equal(alg, x) {
			t.Fatalf("δ^%d ≠ σ^%d under the synchronous schedule", tt, tt)
		}
	}
}

func TestDeltaConvergesUnderRandomSchedules(t *testing.T) {
	// Theorem 7 witnessed through δ: every random schedule from every
	// random state reaches the same σ fixed point.
	alg, adj := ripNet()
	want, _, ok := matrix.FixedPoint[algebras.NatInf](alg, adj, matrix.Identity[algebras.NatInf](alg, 4), 100)
	if !ok {
		t.Fatal("σ must converge")
	}
	rng := rand.New(rand.NewSource(101))
	for trial := 0; trial < 60; trial++ {
		start := matrix.RandomStateFrom(rng, 4, alg.Universe())
		sched := schedule.Random(rng, 4, 250, schedule.Options{
			ActivationProb: 0.4, MaxGap: 8, MaxStaleness: 10,
		})
		final := Final[algebras.NatInf](alg, adj, start, sched)
		if !final.Equal(alg, want) {
			t.Fatalf("trial %d: δ limit differs from σ fixed point:\n%s\nwant:\n%s",
				trial, final.Format(alg), want.Format(alg))
		}
	}
}

func TestDeltaConvergesUnderAdversarialSchedules(t *testing.T) {
	alg, adj := ripNet()
	want, _, _ := matrix.FixedPoint[algebras.NatInf](alg, adj, matrix.Identity[algebras.NatInf](alg, 4), 100)
	rng := rand.New(rand.NewSource(102))
	for trial := 0; trial < 40; trial++ {
		start := matrix.RandomStateFrom(rng, 4, alg.Universe())
		sched := schedule.Adversarial(rng, 4, 600, 10, 12)
		final := Final[algebras.NatInf](alg, adj, start, sched)
		if !final.Equal(alg, want) {
			t.Fatalf("trial %d under adversarial schedule: wrong limit", trial)
		}
	}
}

func TestConvergenceTime(t *testing.T) {
	alg, adj := ripNet()
	start := matrix.Identity[algebras.NatInf](alg, 4)
	sched := schedule.Synchronous(4, 30)
	history := RunReference[algebras.NatInf](alg, adj, start, sched)
	ct, ok := ConvergenceTime[algebras.NatInf](alg, adj, history)
	if !ok {
		t.Fatal("synchronous run must converge within 30 steps")
	}
	if ct < 1 || ct > 5 {
		t.Errorf("convergence time %d out of expected range", ct)
	}
	// Quiet schedule: state never changes but is not σ-stable → not
	// converged.
	quiet := schedule.New(4, 10) // nobody activates
	garbage := matrix.NewState[algebras.NatInf](4, 3)
	h2 := RunReference[algebras.NatInf](alg, adj, garbage, quiet)
	if _, ok := ConvergenceTime[algebras.NatInf](alg, adj, h2); ok {
		t.Error("an unstable frozen state must not count as converged")
	}
}

func TestDeltaPathVectorFromInconsistentState(t *testing.T) {
	// Theorem 11 witnessed through δ: tracked shortest paths converge from
	// garbage-filled (inconsistent) states under random schedules.
	base := algebras.ShortestPaths{}
	alg := pathalg.New[algebras.NatInf](base)
	baseAdj := matrix.NewAdjacency[algebras.NatInf](4)
	link := func(i, j int, w algebras.NatInf) {
		baseAdj.SetEdge(i, j, base.AddEdge(w))
		baseAdj.SetEdge(j, i, base.AddEdge(w))
	}
	link(0, 1, 1)
	link(1, 2, 1)
	link(2, 3, 1)
	link(3, 0, 2)
	adj := pathalg.LiftAdjacency(alg, baseAdj)
	type R = pathalg.Route[algebras.NatInf]
	want, _, _ := matrix.FixedPoint[R](alg, adj, matrix.Identity[R](alg, 4), 100)
	rng := rand.New(rand.NewSource(103))
	gen := func(rng *rand.Rand, _, _ int) R {
		if rng.Intn(5) == 0 {
			return alg.Invalid()
		}
		perm := rng.Perm(4)
		p := paths.FromNodes(perm[:1+rng.Intn(3)]...)
		return R{Base: algebras.NatInf(rng.Intn(6)), Path: p}
	}
	for trial := 0; trial < 30; trial++ {
		start := matrix.RandomState(rng, 4, gen)
		sched := schedule.Random(rng, 4, 400, schedule.Options{MaxGap: 8, MaxStaleness: 10})
		final := Final[R](alg, adj, start, sched)
		if !final.Equal(alg, want) {
			t.Fatalf("trial %d: PV δ limit differs from σ fixed point", trial)
		}
	}
}

func TestDeltaPolicyAlgebra(t *testing.T) {
	// The Section 7 algebra under δ with hostile schedules: unique limit.
	alg := policy.Algebra{}
	adj := matrix.NewAdjacency[policy.Route](3)
	pols := []policy.Policy{
		policy.IncrPrefBy(1),
		policy.If(policy.InComm(1), policy.Reject()),
		policy.Compose(policy.AddComm(1), policy.Identity()),
	}
	k := 0
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			if i != j {
				adj.SetEdge(i, j, alg.Edge(i, j, pols[k%len(pols)]))
				k++
			}
		}
	}
	want, _, ok := matrix.FixedPoint[policy.Route](alg, adj, matrix.Identity[policy.Route](alg, 3), 200)
	if !ok {
		t.Fatal("σ must converge for the increasing policy algebra")
	}
	rng := rand.New(rand.NewSource(104))
	for trial := 0; trial < 30; trial++ {
		start := matrix.RandomState(rng, 3, func(rng *rand.Rand, _, _ int) policy.Route {
			return policy.RandomRoute(rng, 3)
		})
		sched := schedule.Adversarial(rng, 3, 500, 8, 10)
		final := Final[policy.Route](alg, adj, start, sched)
		if !final.Equal(alg, want) {
			t.Fatalf("trial %d: policy δ limit differs", trial)
		}
	}
}
