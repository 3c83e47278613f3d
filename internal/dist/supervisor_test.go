package dist_test

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"os/exec"
	"runtime"
	"testing"
	"time"

	"repro/internal/algebras"
	"repro/internal/dist"
	"repro/internal/matrix"
	"repro/internal/transport"
	"repro/internal/wire"
)

// TestCrashRecoverExplicit crashes a node mid-run (the scenario `crash`
// event path), holds it down long enough that the network would
// otherwise have settled, recovers it wiped, and checks the run still
// ends on the σ fixed point with the recovery counted in the outcome. A
// recover of a node that is up does nothing, as on the simulator, so
// exactly one restart is counted.
func TestCrashRecoverExplicit(t *testing.T) {
	alg := algebras.HopCount{Limit: 15}
	n := 6
	adj := ringAdj(n, alg)
	start := matrix.Identity(alg, n)

	cfg := dist.Config{Seed: 19, Timeout: 20 * time.Second}
	tr := transport.NewMemory(n, cfg.Seed, transport.Faults{})
	nw := dist.NewNetwork(alg, adj, start, wire.NatInfCodec{}, tr, cfg)
	// Pending ops hold off quiescence until both halves have fired, so
	// the run cannot be declared converged while node 2 is down.
	nw.ApplyAfter(60*time.Millisecond, func(nw *dist.Network[algebras.NatInf]) {
		nw.RecoverNode(2)
	})
	nw.ApplyAfter(120*time.Millisecond, func(nw *dist.Network[algebras.NatInf]) {
		nw.CrashNode(2)
	})
	nw.ApplyAfter(400*time.Millisecond, func(nw *dist.Network[algebras.NatInf]) {
		nw.RecoverNode(2)
	})

	out := nw.Run(context.Background())
	if !out.Converged {
		t.Fatalf("crash/recover run did not converge: %s", out.Describe())
	}
	if out.Class != dist.ClassConverged {
		t.Fatalf("class %s, want converged", out.Class)
	}
	if out.Elapsed < 400*time.Millisecond {
		t.Fatalf("run settled in %v, before the scheduled recovery", out.Elapsed)
	}
	if out.Stats.Restarts != 1 {
		t.Fatalf("outcome stats count %d restarts, want 1: %+v", out.Stats.Restarts, out.Stats)
	}
	if len(out.DownNodes) != 0 {
		t.Fatalf("nodes %v still down after recovery", out.DownNodes)
	}
	want, _, ok := matrix.FixedPoint(alg, adj, start, 4*n)
	if !ok {
		t.Fatal("σ fixed point not reached in reference")
	}
	if !out.Final.Equal(alg, want) {
		t.Fatalf("post-recovery state is off the fixed point\ngot:\n%s\nwant:\n%s",
			out.Final.Format(alg), want.Format(alg))
	}
}

// TestCrashWithoutRecoverPartitions pins the graceful-degradation
// contract: a node crashed and never recovered must end the run as a
// classified Partitioned outcome when the timeout fires — terminating,
// never hanging, with the dead node listed. `down` is written only by
// CrashNode and spawn, so DownNodes lists crashed nodes and nothing else.
func TestCrashWithoutRecoverPartitions(t *testing.T) {
	alg := algebras.HopCount{Limit: 15}
	n := 4
	adj := ringAdj(n, alg)
	start := matrix.Identity(alg, n)

	cfg := dist.Config{Seed: 23, Timeout: 1500 * time.Millisecond}
	tr := transport.NewMemory(n, cfg.Seed, transport.Faults{})
	nw := dist.NewNetwork(alg, adj, start, wire.NatInfCodec{}, tr, cfg)
	nw.ApplyAfter(100*time.Millisecond, func(nw *dist.Network[algebras.NatInf]) {
		nw.CrashNode(1)
	})

	out := nw.Run(context.Background())
	if out.Converged {
		t.Fatal("run with a permanently dead node declared convergence")
	}
	if out.Class != dist.ClassPartitioned {
		t.Fatalf("class %s, want partitioned", out.Class)
	}
	if len(out.DownNodes) != 1 || out.DownNodes[0] != 1 {
		t.Fatalf("down nodes %v, want [1]", out.DownNodes)
	}
}

// TestProcessStallIsNotACrash stops the whole process (SIGSTOP, from a
// helper shell) for 400ms — two hundred activation periods and more than
// two settle windows — in the middle of a run. Every router, timer and
// the monitor stall together. Nothing in the network may read that gap
// as a failure: afterwards no node is down and the run converges.
func TestProcessStallIsNotACrash(t *testing.T) {
	sh, err := exec.LookPath("sh")
	if err != nil || runtime.GOOS == "windows" {
		t.Skip("needs a POSIX shell to stop and continue the test process")
	}
	alg := algebras.HopCount{Limit: 15}
	n := 6
	adj := ringAdj(n, alg)
	start := matrix.Identity(alg, n)

	cfg := dist.Config{Seed: 37, Timeout: 20 * time.Second}
	tr := transport.NewMemory(n, cfg.Seed, transport.Faults{})
	nw := dist.NewNetwork(alg, adj, start, wire.NatInfCodec{}, tr, cfg)
	nw.ApplyAfter(100*time.Millisecond, func(*dist.Network[algebras.NatInf]) {
		pid := os.Getpid()
		stall := fmt.Sprintf("kill -STOP %d; sleep 0.4; kill -CONT %d", pid, pid)
		if err := exec.Command(sh, "-c", stall).Run(); err != nil {
			t.Errorf("stalling the process: %v", err)
		}
	})

	out := nw.Run(context.Background())
	if len(out.DownNodes) != 0 {
		t.Fatalf("a process stall left nodes %v down: %s", out.DownNodes, out.Describe())
	}
	if !out.Converged {
		t.Fatalf("stalled run did not converge: %s", out.Describe())
	}
}

// TestCrashRecoverTorture is the self-stabilization torture test: one to
// three crash/recover pairs land at random times over a lossy,
// duplicating, reordering transport with tiny receive queues, and every
// trial must either converge to the reference σ fixed point or terminate
// classified — never hang, never leak a goroutine, never land converged
// off the fixed point. Each recovered node reboots wiped; Theorem 7 says
// the continuation reconverges, and this is that claim under a live
// adversary. Pairs on one node may overlap: a crash of a down node and a
// recover of an up node do nothing, as on the simulator.
func TestCrashRecoverTorture(t *testing.T) {
	if testing.Short() {
		t.Skip("torture test skipped in -short mode")
	}
	alg := algebras.HopCount{Limit: 15}
	n := 6
	adj := ringAdj(n, alg)
	start := matrix.Identity(alg, n)
	want, _, ok := matrix.FixedPoint(alg, adj, start, 4*n)
	if !ok {
		t.Fatal("σ fixed point not reached in reference")
	}

	baseline := runtime.NumGoroutine()
	rng := rand.New(rand.NewSource(777))
	const trials = 5
	for trial := 0; trial < trials; trial++ {
		cfg := dist.Config{Seed: int64(1000 + trial), Timeout: 15 * time.Second}
		tr := transport.NewMemory(n, cfg.Seed, transport.Faults{
			LossProb: 0.1,
			DupProb:  0.1,
			MaxDelay: time.Millisecond,
			QueueLen: 16,
		})
		nw := dist.NewNetwork(alg, adj, start, wire.NatInfCodec{}, tr, cfg)
		pairs := 1 + rng.Intn(3)
		for k := 0; k < pairs; k++ {
			node := rng.Intn(n)
			crashAt := time.Duration(50+rng.Intn(400)) * time.Millisecond
			recoverAt := crashAt + time.Duration(20+rng.Intn(200))*time.Millisecond
			nw.ApplyAfter(crashAt, func(nw *dist.Network[algebras.NatInf]) {
				nw.CrashNode(node)
			})
			nw.ApplyAfter(recoverAt, func(nw *dist.Network[algebras.NatInf]) {
				nw.RecoverNode(node)
			})
		}

		out := nw.Run(context.Background())
		switch {
		case out.Converged:
			if !out.Final.Equal(alg, want) {
				t.Fatalf("trial %d converged off the fixed point\ngot:\n%s\nwant:\n%s",
					trial, out.Final.Format(alg), want.Format(alg))
			}
		case out.Class == dist.ClassDegraded || out.Class == dist.ClassPartitioned:
			// Graceful degradation is an acceptable ending; hanging is not,
			// and Run returning at all proves it terminated.
			t.Logf("trial %d ended %s after %d crash/recover pair(s): %s", trial, out.Class, pairs, out.Describe())
		default:
			t.Fatalf("trial %d ended unclassified: %+v", trial, out)
		}
	}

	// Every Run must have joined all its goroutines and closed its
	// transport: give stragglers a beat, then compare against baseline.
	deadline := time.After(2 * time.Second)
	for runtime.NumGoroutine() > baseline {
		select {
		case <-deadline:
			t.Fatalf("goroutine leak: %d now vs %d before the torture trials",
				runtime.NumGoroutine(), baseline)
		case <-time.After(20 * time.Millisecond):
		}
	}
}

// TestRunClosesTransport pins the shutdown fix: Run must drain its
// routers and close the transport before returning, even when the run
// ends by context cancellation rather than convergence.
func TestRunClosesTransport(t *testing.T) {
	alg := algebras.HopCount{Limit: 15}
	n := 4
	adj := ringAdj(n, alg)
	start := matrix.Identity(alg, n)

	cfg := dist.Config{Seed: 5, Timeout: 20 * time.Second}
	tr := transport.NewMemory(n, cfg.Seed, transport.Faults{})
	nw := dist.NewNetwork(alg, adj, start, wire.NatInfCodec{}, tr, cfg)

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan dist.Outcome[algebras.NatInf], 1)
	go func() { done <- nw.Run(ctx) }()
	time.Sleep(50 * time.Millisecond)
	cancel()

	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Run did not return after context cancellation")
	}
	if err := tr.Send(transport.Message{From: 0, To: 1}); err != transport.ErrClosed {
		t.Fatalf("transport still open after Run returned: Send gave %v, want ErrClosed", err)
	}
}
