package dist_test

import (
	"context"
	"testing"
	"time"

	"repro/internal/algebras"
	"repro/internal/dist"
	"repro/internal/matrix"
	"repro/internal/transport"
	"repro/internal/wire"
)

func ringAdj(n int, alg algebras.HopCount) *matrix.Adjacency[algebras.NatInf] {
	adj := matrix.NewAdjacency[algebras.NatInf](n)
	for i := 0; i < n; i++ {
		j := (i + 1) % n
		adj.SetEdge(i, j, alg.AddEdge(1))
		adj.SetEdge(j, i, alg.AddEdge(1))
	}
	return adj
}

// TestRunLocalWithFaults: a live run over a lossy, duplicating, delaying
// in-memory transport must still converge to the σ fixed point
// (Theorem 4 with the fault profile as the adversary).
func TestRunLocalWithFaults(t *testing.T) {
	alg := algebras.HopCount{Limit: 15}
	n := 6
	adj := ringAdj(n, alg)
	start := matrix.Identity(alg, n)

	cfg := dist.Config{Seed: 42, Timeout: 20 * time.Second}
	tr := transport.NewMemory(n, cfg.Seed, transport.Faults{
		LossProb: 0.2,
		DupProb:  0.2,
		MinDelay: 100 * time.Microsecond,
		MaxDelay: 2 * time.Millisecond,
	})
	out := dist.NewNetwork(alg, adj, start, wire.NatInfCodec{}, tr, cfg).Run(context.Background())
	if !out.Converged {
		t.Fatalf("lossy live run did not converge: %s", out.Describe())
	}
	want, _, ok := matrix.FixedPoint(alg, adj, start, 4*n)
	if !ok {
		t.Fatal("σ fixed point not reached in reference")
	}
	if !out.Final.Equal(alg, want) {
		t.Fatalf("live run settled off the σ fixed point\ngot:\n%s\nwant:\n%s",
			out.Final.Format(alg), want.Format(alg))
	}
}

// TestRestartHook: a RestartNode scheduled through ApplyAfter wipes a
// node mid-run; the run must hold off convergence until the restart has
// fired and still settle back on the fixed point.
func TestRestartHook(t *testing.T) {
	alg := algebras.HopCount{Limit: 15}
	n := 5
	adj := ringAdj(n, alg)
	start := matrix.Identity(alg, n)

	cfg := dist.Config{Seed: 7, Timeout: 20 * time.Second}
	tr := transport.NewMemory(n, cfg.Seed, transport.Faults{})
	nw := dist.NewNetwork(alg, adj, start, wire.NatInfCodec{}, tr, cfg)
	nw.ApplyAfter(150*time.Millisecond, func(nw *dist.Network[algebras.NatInf]) {
		nw.RestartNode(2)
	})
	out := nw.Run(context.Background())
	if !out.Converged {
		t.Fatalf("run with restart did not converge: %s", out.Describe())
	}
	if out.Elapsed < 150*time.Millisecond {
		t.Fatalf("run settled in %v, before the scheduled restart", out.Elapsed)
	}
	want, _, _ := matrix.FixedPoint(alg, adj, start, 4*n)
	if !out.Final.Equal(alg, want) {
		t.Fatalf("post-restart state is off the fixed point\ngot:\n%s", out.Final.Format(alg))
	}
}

// TestLiveMutation fails a link against a running network and checks the
// network re-converges to the fixed point of the mutated topology.
func TestLiveMutation(t *testing.T) {
	alg := algebras.HopCount{Limit: 15}
	n := 6
	adj := ringAdj(n, alg)
	start := matrix.Identity(alg, n)

	cfg := dist.Config{Seed: 3, Timeout: 20 * time.Second}
	tr := transport.NewMemory(n, cfg.Seed, transport.Faults{})
	nw := dist.NewNetwork(alg, adj, start, wire.NatInfCodec{}, tr, cfg)

	done := make(chan dist.Outcome[algebras.NatInf], 1)
	go func() { done <- nw.Run(context.Background()) }()

	time.Sleep(100 * time.Millisecond)
	nw.Mutate(func(a *matrix.Adjacency[algebras.NatInf]) {
		a.RemoveEdge(0, 1)
		a.RemoveEdge(1, 0)
	})

	out := <-done
	tr.Close()
	if !out.Converged {
		t.Fatalf("network did not re-converge after live link failure: %s", out.Describe())
	}
	mut := adj.Clone()
	mut.RemoveEdge(0, 1)
	mut.RemoveEdge(1, 0)
	want, _, ok := matrix.FixedPoint(alg, mut, start, 4*n)
	if !ok {
		t.Fatal("σ fixed point not reached on mutated topology")
	}
	if !out.Final.Equal(alg, want) {
		t.Fatalf("live run settled off the mutated topology's fixed point\ngot:\n%s\nwant:\n%s",
			out.Final.Format(alg), want.Format(alg))
	}
}

// TestLargeDelayConvergesOnFixedPoint: with transport delays longer
// than the default settle window, the window stretches past the longest
// delay, so a run judged converged ends on the σ fixed point — no stale
// advert still in flight lands after the verdict.
func TestLargeDelayConvergesOnFixedPoint(t *testing.T) {
	alg := algebras.HopCount{Limit: 15}
	n := 5
	adj := ringAdj(n, alg)
	start := matrix.Identity(alg, n)

	cfg := dist.Config{Seed: 11, Timeout: 20 * time.Second}
	tr := transport.NewMemory(n, cfg.Seed, transport.Faults{
		LossProb: 0.1,
		DupProb:  0.3,
		MaxDelay: 250 * time.Millisecond,
	})
	out := dist.NewNetwork(alg, adj, start, wire.NatInfCodec{}, tr, cfg).Run(context.Background())
	if !out.Converged {
		t.Fatalf("large-delay run did not converge: %s", out.Describe())
	}
	want, _, _ := matrix.FixedPoint(alg, adj, start, 4*n)
	if !matrix.IsStable(alg, adj, out.Final) || !out.Final.Equal(alg, want) {
		t.Fatalf("converged run ended off the σ fixed point\ngot:\n%s\nwant:\n%s",
			out.Final.Format(alg), want.Format(alg))
	}
}
