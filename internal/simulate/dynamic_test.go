package simulate

import (
	"testing"

	"repro/internal/algebras"
	"repro/internal/matrix"
	"repro/internal/pathalg"
)

// mutateAt is an event that edits the topology at virtual time t.
func mutateAt[R any](t int64, f func(*matrix.Adjacency[R])) Event[R] {
	return Event[R]{Time: t, Apply: func(s *Sim[R]) { s.Mutate(f) }}
}

// restartAt is an event that restarts node i at virtual time t.
func restartAt[R any](t int64, i int) Event[R] {
	return Event[R]{Time: t, Apply: func(s *Sim[R]) { s.RestartNode(i) }}
}

// TestDynamicLinkFailureAndRecovery exercises the Section 3.2 story: the
// network converges, a link dies (stale routes remain), the protocol
// re-converges on the new topology, the link returns, and the protocol
// re-converges again — all within one simulator run.
func TestDynamicLinkFailureAndRecovery(t *testing.T) {
	alg := algebras.HopCount{Limit: 7}
	adj := matrix.NewAdjacency[algebras.NatInf](4)
	link := func(a *matrix.Adjacency[algebras.NatInf], i, j int) {
		a.SetEdge(i, j, alg.AddEdge(1))
		a.SetEdge(j, i, alg.AddEdge(1))
	}
	link(adj, 0, 1)
	link(adj, 1, 2)
	link(adj, 2, 3)
	link(adj, 3, 0)

	// Expected final topology = original (the link comes back).
	want, _, _ := matrix.FixedPoint[algebras.NatInf](alg, adj, matrix.Identity[algebras.NatInf](alg, 4), 100)

	out := Run[algebras.NatInf](alg, adj, matrix.Identity[algebras.NatInf](alg, 4), Config{
		Seed:     77,
		LossProb: 0.15,
		MaxTime:  500_000,
	}, nil,
		mutateAt(150, func(a *matrix.Adjacency[algebras.NatInf]) {
			a.RemoveEdge(1, 2)
			a.RemoveEdge(2, 1)
		}),
		mutateAt(400, func(a *matrix.Adjacency[algebras.NatInf]) {
			link(a, 1, 2)
		}),
	)
	if !out.Converged {
		t.Fatalf("did not converge: %s", out.Describe())
	}
	if !out.Final.Equal(alg, want) {
		t.Fatalf("final state differs from the restored-topology fixed point:\n%s", out.Final.Format(alg))
	}
}

// TestDynamicPermanentPartition removes a node's only links and checks the
// survivors re-converge to the partitioned fixed point.
func TestDynamicPermanentPartition(t *testing.T) {
	alg := algebras.HopCount{Limit: 7}
	adj := matrix.NewAdjacency[algebras.NatInf](4)
	link := func(a *matrix.Adjacency[algebras.NatInf], i, j int) {
		a.SetEdge(i, j, alg.AddEdge(1))
		a.SetEdge(j, i, alg.AddEdge(1))
	}
	link(adj, 0, 1)
	link(adj, 1, 2)
	link(adj, 2, 3)

	// Post-change topology: node 3 isolated.
	after := adj.Clone()
	after.RemoveEdge(2, 3)
	after.RemoveEdge(3, 2)
	want, _, _ := matrix.FixedPoint[algebras.NatInf](alg, after, matrix.Identity[algebras.NatInf](alg, 4), 100)

	out := Run[algebras.NatInf](alg, adj, matrix.Identity[algebras.NatInf](alg, 4), Config{
		Seed: 78,
	}, nil, mutateAt(120, func(a *matrix.Adjacency[algebras.NatInf]) {
		a.RemoveEdge(2, 3)
		a.RemoveEdge(3, 2)
	}))
	if !out.Converged {
		t.Fatalf("did not converge: %s", out.Describe())
	}
	if !out.Final.Equal(alg, want) {
		t.Fatalf("wrong partitioned fixed point; got\n%s\nwant\n%s",
			out.Final.Format(alg), want.Format(alg))
	}
	if got := out.Final.Get(0, 3); got != algebras.Inf {
		t.Errorf("route to isolated node should be ∞, got %v", got)
	}
}

// TestDynamicCrashRecover takes a node down mid-run — no activations, no
// deliveries, its in-flight traffic discarded — and brings it back wiped.
// The run must refuse to settle during the outage and still converge on
// the original fixed point afterwards (Theorem 7: the post-recovery
// state is just another arbitrary starting state).
func TestDynamicCrashRecover(t *testing.T) {
	alg := algebras.HopCount{Limit: 7}
	adj := matrix.NewAdjacency[algebras.NatInf](5)
	link := func(a *matrix.Adjacency[algebras.NatInf], i, j int) {
		a.SetEdge(i, j, alg.AddEdge(1))
		a.SetEdge(j, i, alg.AddEdge(1))
	}
	for i := 0; i < 5; i++ {
		link(adj, i, (i+1)%5)
	}
	want, _, _ := matrix.FixedPoint[algebras.NatInf](alg, adj, matrix.Identity[algebras.NatInf](alg, 5), 100)

	out := Run[algebras.NatInf](alg, adj, matrix.Identity[algebras.NatInf](alg, 5), Config{
		Seed:     81,
		LossProb: 0.1,
	}, nil,
		Event[algebras.NatInf]{Time: 120, Apply: func(s *Sim[algebras.NatInf]) { s.CrashNode(2) }},
		Event[algebras.NatInf]{Time: 500, Apply: func(s *Sim[algebras.NatInf]) { s.RecoverNode(2) }},
	)
	if !out.Converged {
		t.Fatalf("did not converge after crash/recover: %s", out.Describe())
	}
	if out.ConvergedAt < 500 {
		t.Fatalf("declared converged at t=%d, before the recovery at t=500", out.ConvergedAt)
	}
	if !out.Final.Equal(alg, want) {
		t.Fatalf("post-recovery state is off the fixed point:\n%s", out.Final.Format(alg))
	}
	if out.Stats.Dropped == 0 {
		t.Error("a crashed node's inbound traffic should have been dropped")
	}
}

// TestDynamicPathVectorFlush checks that a topology change that strands a
// path-vector route gets flushed after the change — stale inconsistent
// routes are the whole reason Section 3.2 demands convergence from
// arbitrary states.
func TestDynamicPathVectorFlush(t *testing.T) {
	base := algebras.ShortestPaths{}
	alg := pathalg.New[algebras.NatInf](base)
	type R = pathalg.Route[algebras.NatInf]
	baseAdj := matrix.NewAdjacency[algebras.NatInf](3)
	link := func(a *matrix.Adjacency[algebras.NatInf], i, j int) {
		a.SetEdge(i, j, base.AddEdge(1))
		a.SetEdge(j, i, base.AddEdge(1))
	}
	link(baseAdj, 0, 1)
	link(baseAdj, 1, 2)
	adj := pathalg.LiftAdjacency(alg, baseAdj)

	afterBase := baseAdj.Clone()
	afterBase.RemoveEdge(1, 2)
	afterBase.RemoveEdge(2, 1)
	after := pathalg.LiftAdjacency(alg, afterBase)
	want, _, _ := matrix.FixedPoint[R](alg, after, matrix.Identity[R](alg, 3), 100)

	out := Run[R](alg, adj, matrix.Identity[R](alg, 3), Config{
		Seed: 79,
	}, nil, mutateAt(150, func(a *matrix.Adjacency[R]) {
		a.RemoveEdge(1, 2)
		a.RemoveEdge(2, 1)
	}))
	if !out.Converged {
		t.Fatalf("did not converge: %s", out.Describe())
	}
	if !out.Final.Equal(alg, want) {
		t.Fatal("stale routes not flushed after link removal")
	}
}

// TestEventsFireInListOrder pins the tie rule: events at equal virtual
// times fire in list order. Cutting a link and restoring it at the same
// instant ends on the intact topology's fixed point; the reverse order
// ends on the partitioned one.
func TestEventsFireInListOrder(t *testing.T) {
	alg := algebras.HopCount{Limit: 7}
	adj := matrix.NewAdjacency[algebras.NatInf](3)
	link := func(a *matrix.Adjacency[algebras.NatInf], i, j int) {
		a.SetEdge(i, j, alg.AddEdge(1))
		a.SetEdge(j, i, alg.AddEdge(1))
	}
	link(adj, 0, 1)
	link(adj, 1, 2)
	cutAdj := adj.Clone()
	cutAdj.RemoveEdge(1, 2)
	cutAdj.RemoveEdge(2, 1)
	start := matrix.Identity[algebras.NatInf](alg, 3)
	intact, _, _ := matrix.FixedPoint[algebras.NatInf](alg, adj, start, 100)
	partitioned, _, _ := matrix.FixedPoint[algebras.NatInf](alg, cutAdj, start, 100)

	cut := mutateAt(100, func(a *matrix.Adjacency[algebras.NatInf]) {
		a.RemoveEdge(1, 2)
		a.RemoveEdge(2, 1)
	})
	restore := mutateAt(100, func(a *matrix.Adjacency[algebras.NatInf]) { link(a, 1, 2) })
	for _, tc := range []struct {
		name   string
		events []Event[algebras.NatInf]
		want   *matrix.State[algebras.NatInf]
	}{
		{"cut then restore", []Event[algebras.NatInf]{cut, restore}, intact},
		{"restore then cut", []Event[algebras.NatInf]{restore, cut}, partitioned},
	} {
		out := Run[algebras.NatInf](alg, adj, start, Config{Seed: 80}, nil, tc.events...)
		if !out.Converged {
			t.Fatalf("%s: did not converge: %s", tc.name, out.Describe())
		}
		if !out.Final.Equal(alg, tc.want) {
			t.Errorf("%s: wrong fixed point:\n%s\nwant\n%s", tc.name, out.Final.Format(alg), tc.want.Format(alg))
		}
	}
	if intact.Equal(alg, partitioned) {
		t.Fatal("the two topologies share a fixed point; the test is vacuous")
	}
}
