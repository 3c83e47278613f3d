package engine_test

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/algebras"
	"repro/internal/async"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/matrix"
	"repro/internal/policy"
	"repro/internal/schedule"
)

// The restore contract: a run named at any step k and restored by
// replay must be indistinguishable from never having been interrupted —
// the same cells at every comparable point and the same work counters.

// statsMatch requires equal Stats: every counter is resume-invariant, so
// a restored, sliced or differently configured run must match exactly.
func statsMatch(t *testing.T, label string, got, want engine.Stats) {
	t.Helper()
	if got != want {
		t.Fatalf("%s: stats diverge: got %+v want %+v", label, got, want)
	}
}

// runSnapshotDifferential fuzzes snapshot points over recorded schedules:
// for each k, snapshot → restore must be cell-for-cell and
// counter-for-counter identical to the uninterrupted run, the run halted
// at k must hold the reference's state at k, and both must match the
// literal reference evaluator.
func runSnapshotDifferential[R any](t *testing.T, name string, alg core.Algebra[R], adj *matrix.Adjacency[R], start *matrix.State[R]) {
	n := adj.N
	rng := rand.New(rand.NewSource(77))
	const T = 100

	for trial := 0; trial < 2; trial++ {
		sched := schedule.Random(rng, n, T, schedule.Options{MaxGap: 6, MaxStaleness: 5})
		ref := async.RunReference(alg, adj, start, sched)

		eng := engine.New(alg, adj, engine.Config{})
		ks := map[int]bool{1: true, 2: true, T / 2: true, T - 1: true, T: true}
		for len(ks) < 12 {
			ks[1+rng.Intn(T)] = true
		}
		for k := range ks {
			label := fmt.Sprintf("%s trial %d k=%d", name, trial, k)
			full, snap := eng.RunSnapshot(start, sched, k, false)
			if snap == nil {
				t.Fatalf("%s: no snapshot captured", label)
			}
			identicalStates(t, label+" uninterrupted final", full.Final(), ref[T])
			if snap.Step != k || snap.Start != start {
				t.Fatalf("%s: snapshot names step %d from another start, want step %d", label, snap.Step, k)
			}

			resumed, err := eng.Restore(snap, sched)
			if err != nil {
				t.Fatalf("%s: restore: %v", label, err)
			}
			identicalStates(t, label+" resumed final", resumed.Final(), full.Final())
			statsMatch(t, label, resumed.Stats(), full.Stats())

			// The preemption form: halting at k must leave exactly δᵏ(X).
			halted, hsnap := eng.RunSnapshot(start, sched, k, true)
			identicalStates(t, label+" halted final", halted.Final(), ref[k])
			if hsnap == nil || hsnap.Step != k {
				t.Fatalf("%s: halted run lost its snapshot", label)
			}
		}
		eng.Close()
	}
}

func TestSnapshotRestoreDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	t.Run("hopcount", func(t *testing.T) {
		alg, adj, universe := hopNet()
		runSnapshotDifferential(t, "hopcount", alg, adj, matrix.RandomStateFrom(rng, adj.N, universe))
	})
	t.Run("lex", func(t *testing.T) {
		alg, adj, universe := lexNet()
		runSnapshotDifferential(t, "lex", alg, adj, matrix.RandomStateFrom(rng, adj.N, universe))
	})
	t.Run("gaorexford", func(t *testing.T) {
		alg, adj, universe := grNet()
		runSnapshotDifferential(t, "gaorexford", alg, adj, matrix.RandomStateFrom(rng, adj.N, universe))
	})
	t.Run("policy", func(t *testing.T) {
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
		runSnapshotDifferential[policy.IRoute](t, "policy", alg, adj, matrix.Identity[policy.IRoute](alg, 6))
	})
}

// TestSnapshotRestoreCertification snapshots a certifying run (Fair
// source, early termination live) before its fixed point: the restored
// run must certify at exactly the same step with the same counters.
func TestSnapshotRestoreCertification(t *testing.T) {
	alg, adj, _ := hopNet()
	n := adj.N
	start := matrix.Identity[algebras.NatInf](alg, n)
	src := engine.Hashed{N: n, T: 4000, Seed: 91, MaxGap: 6, MaxStaleness: 5}
	eng := engine.New(alg, adj, engine.Config{})
	defer eng.Close()

	full, snap := eng.RunSnapshot(start, src, 3, false)
	if _, ok := full.Converged(); !ok {
		t.Fatal("hopcount run under a fair source did not certify convergence")
	}
	if snap == nil {
		t.Fatal("run certified before step 3")
	}
	resumed, err := eng.Restore(snap, src)
	if err != nil {
		t.Fatal(err)
	}
	identicalStates(t, "certified final", resumed.Final(), full.Final())
	statsMatch(t, "certified", resumed.Stats(), full.Stats())
}

// TestRestoreRejectsMismatch pins the validation surface: a snapshot
// restored under the wrong configuration must fail with a clean error,
// never evaluate garbage.
func TestRestoreRejectsMismatch(t *testing.T) {
	alg, adj, _ := hopNet()
	n := adj.N
	start := matrix.Identity[algebras.NatInf](alg, n)
	rng := rand.New(rand.NewSource(5))
	sched := schedule.Random(rng, n, 60, schedule.Options{MaxGap: 6, MaxStaleness: 5})
	eng := engine.New(alg, adj, engine.Config{})
	defer eng.Close()
	_, snap := eng.RunSnapshot(start, sched, 20, true)

	short := schedule.Random(rng, n, 10, schedule.Options{MaxGap: 6, MaxStaleness: 5})
	if _, err := eng.Restore(snap, short); err == nil {
		t.Fatal("restore accepted a snapshot beyond the source horizon")
	}

	bad := *snap
	bad.Start = matrix.Identity[algebras.NatInf](alg, n+1)
	if _, err := eng.Restore(&bad, sched); err == nil {
		t.Fatal("restore accepted a start state of another instance")
	}
}
