package expr

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"time"

	"repro/internal/algebras"
	"repro/internal/async"
	"repro/internal/dist"
	"repro/internal/engine"
	"repro/internal/matrix"
	"repro/internal/schedule"
	"repro/internal/simulate"
	"repro/internal/transport"
	"repro/internal/wire"
)

// AsyncEquivalenceResult is experiment E12.
type AsyncEquivalenceResult struct {
	// DeltaOK, SimulatorOK and LiveOK report each substrate reaching the
	// σ fixed point.
	DeltaOK, SimulatorOK, LiveOK bool
	// SigmaRecovered reports that δ under the synchronous schedule equals
	// σ step by step.
	SigmaRecovered bool
	// ReplayOK reports that replaying the schedule extracted from a
	// simulator run through the literal δ evaluator reproduces the
	// simulator's exact final state (the factorisation, demonstrated).
	ReplayOK bool
	// EngineOK reports that the sharded, memory-bounded engine produces
	// bit-identical finals to the reference clone-everything evaluator on
	// the same schedules, in no more σ-cell evaluations than recomputing
	// every activated row in full would take.
	EngineOK bool
	// EarlyStopOK reports that a fair run cut short at its certified
	// fixed point returns exactly the state the full-horizon run reaches.
	EarlyStopOK bool
}

// OK reports overall success.
func (r AsyncEquivalenceResult) OK() bool {
	return r.DeltaOK && r.SimulatorOK && r.LiveOK && r.SigmaRecovered && r.ReplayOK &&
		r.EngineOK && r.EarlyStopOK
}

// AsyncEquivalence is experiment E12 (Section 3): the three asynchronous
// substrates — the literal δ evaluator over explicit (α, β) schedules, the
// deterministic event simulator, and the live goroutine engine over a
// lossy in-memory transport — all compute the same answer as σ, from the
// same arbitrary starting state. It also re-verifies the Section 3.1
// remark that δ degenerates to σ under the synchronous schedule.
func AsyncEquivalence(w io.Writer, trials int) AsyncEquivalenceResult {
	section(w, "E12 (§3)", "δ ≡ simulator ≡ live engine ≡ σ-limit")
	alg, adj := ripRing()
	want, _, _ := matrix.FixedPoint[algebras.NatInf](alg, adj, matrix.Identity[algebras.NatInf](alg, 4), 100)
	rng := rand.New(rand.NewSource(1201))
	res := AsyncEquivalenceResult{
		DeltaOK: true, SimulatorOK: true, LiveOK: true, SigmaRecovered: true,
		EngineOK: true, EarlyStopOK: true,
	}

	// δ recovers σ under the synchronous schedule: the engine run of
	// horizon t lands on σᵗ (a recorded schedule is not Fair, so every
	// run goes to its horizon).
	x := matrix.Identity[algebras.NatInf](alg, 4)
	for t := 1; t <= 10; t++ {
		x = matrix.Sigma[algebras.NatInf](alg, adj, x)
		delta := engine.Run[algebras.NatInf](alg, adj, matrix.Identity[algebras.NatInf](alg, 4), schedule.Synchronous(4, t))
		if !delta.Final().Equal(alg, x) {
			res.SigmaRecovered = false
		}
	}

	for trial := 0; trial < trials; trial++ {
		start := matrix.RandomStateFrom(rng, 4, alg.Universe())

		sched := schedule.Random(rng, 4, 300, schedule.Options{MaxGap: 8, MaxStaleness: 10})
		if !async.Final[algebras.NatInf](alg, adj, start, sched).Equal(alg, want) {
			res.DeltaOK = false
		}

		// The memory-bounded sharded engine must agree with the reference
		// evaluator cell for cell, not merely reach the same limit — while
		// doing no more work than full recomputation, n cells for every
		// activation, would.
		ref := async.RunReference[algebras.NatInf](alg, adj, start, sched)
		bounded := engine.Run[algebras.NatInf](alg, adj, start, sched)
		if st := bounded.Stats(); !bounded.Final().Equal(alg, ref[len(ref)-1]) ||
			st.CellsComputed > adj.N*(st.RowsComputed+st.RowsSkipped) {
			res.EngineOK = false
		}

		// Early termination: a fair lazy schedule stopped at its certified
		// fixed point must land exactly where the literal evaluator is at
		// the horizon.
		src := engine.Hashed{N: 4, T: 400, Seed: uint64(trial), MaxGap: 8, MaxStaleness: 5}
		stopped := engine.Run[algebras.NatInf](alg, adj, start, src)
		horizon := async.RunTimelineReference[algebras.NatInf](alg, adj, start, src, nil)
		if _, ok := stopped.Converged(); !ok ||
			stopped.Stats().Steps >= src.T ||
			!stopped.Final().Equal(alg, horizon[src.T]) ||
			!stopped.Final().Equal(alg, want) {
			res.EarlyStopOK = false
		}

		out := simulate.Run[algebras.NatInf](alg, adj, start, simulate.Config{
			Seed: int64(1300 + trial), LossProb: 0.2, DupProb: 0.1, MaxDelay: 12,
		}, nil)
		if !out.Converged || !out.Final.Equal(alg, want) {
			res.SimulatorOK = false
		}
	}

	// Factorisation demonstrated: extract the (α, β) schedule a faulty
	// simulator run induces and replay it through δ — identical final
	// state, not merely the same limit.
	res.ReplayOK = true
	for trial := 0; trial < trials; trial++ {
		start := matrix.RandomStateFrom(rng, 4, alg.Universe())
		simOut, log := simulate.RunExtracting[algebras.NatInf](alg, adj, start, simulate.Config{
			Seed: int64(1400 + trial), LossProb: 0.25, DupProb: 0.15, MaxDelay: 12,
		})
		if !simOut.Converged {
			res.ReplayOK = false
			continue
		}
		replay := async.Final[algebras.NatInf](alg, adj, start, async.FromLog(log))
		if !replay.Equal(alg, simOut.Final) {
			res.ReplayOK = false
		}
	}

	// One live-engine run (wall-clock time makes many runs expensive).
	tr := transport.NewMemory(4, 12, transport.Faults{
		LossProb: 0.2, DupProb: 0.1, MaxDelay: 5 * time.Millisecond,
	})
	defer tr.Close()
	start := matrix.RandomStateFrom(rng, 4, alg.Universe())
	nw := dist.NewNetwork[algebras.NatInf](alg, adj, start, wire.NatInfCodec{}, tr, dist.Config{
		Seed: 12, Timeout: 30 * time.Second,
	})
	outcome := nw.Run(context.Background())
	if !outcome.Converged || !outcome.Final.Equal(alg, want) {
		res.LiveOK = false
	}

	tw := newTab(w)
	fmt.Fprintf(tw, "substrate\treached the σ fixed point\n")
	fmt.Fprintf(tw, "δ under synchronous schedule ≡ σ\t%s\n", pass(res.SigmaRecovered))
	fmt.Fprintf(tw, "δ under random schedules (%d trials)\t%s\n", trials, pass(res.DeltaOK))
	fmt.Fprintf(tw, "bounded-window change-driven engine ≡ reference evaluator, cells ≤ n·activations\t%s\n", pass(res.EngineOK))
	fmt.Fprintf(tw, "fair run stopped at certified fixed point ≡ full horizon\t%s\n", pass(res.EarlyStopOK))
	fmt.Fprintf(tw, "event simulator, loss+dup+reorder (%d trials)\t%s\n", trials, pass(res.SimulatorOK))
	fmt.Fprintf(tw, "δ replay of schedules extracted from simulator runs\t%s\n", pass(res.ReplayOK))
	fmt.Fprintf(tw, "live goroutine engine over faulty transport\t%s\n", pass(res.LiveOK))
	tw.Flush()
	return res
}
