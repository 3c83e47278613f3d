// Package async implements δ, the asynchronous counterpart of σ defined in
// Section 3.1 of the paper, by evaluation over an explicit schedule:
//
//	δ⁰(X)_ij = X_ij
//	δᵗ(X)_ij = ⨁_k A_ik(δ^{β(t,i,k)}(X)_kj) ⊕ I_ij   if i ∈ α(t)
//	         = δ^{t−1}(X)_ij                          otherwise
//
// β may point anywhere into the past, up to the schedule's MaxLookback —
// including times already read (duplication), out of order (reordering)
// or never (loss). The evaluation itself lives in internal/engine, the
// sharded, memory-bounded, change-driven core shared with σ: activations
// whose β-resolved inputs did not change are skipped outright and the
// rest recompute only the affected destination columns, bit-identically
// to the literal recursion. This package keeps the paper-facing API, the
// convergence definitions 6–8 as executable checks, and RunReference /
// RunTimelineReference, the original clone-everything evaluator retained
// as the differential-testing oracle and the one source of whole
// histories.
package async

import (
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/matrix"
	"repro/internal/schedule"
)

// RunReference is the literal Section 3.1 evaluator the engine replaced:
// it clones the full n×n state at every step and keeps every clone,
// returning the whole history [δ⁰(X), δ¹(X), ..., δᵀ(X)]. It is the
// oracle the engine's equivalence tests compare against, the baseline its
// benchmarks measure the copy-on-write win over, and what ConvergenceTime
// reads; callers that need only the limit use Final (bounded memory).
func RunReference[R any](
	alg core.Algebra[R],
	adj *matrix.Adjacency[R],
	start *matrix.State[R],
	sched *schedule.Schedule,
) []*matrix.State[R] {
	return RunTimelineReference(alg, adj, start, sched, nil)
}

// RunTimelineReference is the literal evaluator playing a timeline
// (Section 3.2: a mid-run change is the same run on a new instance): the
// oracle for an engine run started with a timeline under any source
// (engine.Start), β reaching across
// event steps included, since history[β] is read wherever β lands. At an
// event step no node activates, Restart rows become the identity row and
// Mutate edits adj in place; Rows and Invalidate are bookkeeping the
// literal evaluator has none of. Every other step is the recursion as
// written: every state cloned and kept, every cell of an active row
// recomputed, no window, no early stop.
func RunTimelineReference[R any](
	alg core.Algebra[R],
	adj *matrix.Adjacency[R],
	start *matrix.State[R],
	src engine.Source,
	events []engine.TimelineEvent[R],
) []*matrix.State[R] {
	n, T := adj.N, src.Horizon()
	history := make([]*matrix.State[R], T+1)
	history[0] = start.Clone()
	for t := 1; t <= T; t++ {
		cur := history[t-1].Clone()
		if len(events) > 0 && events[0].Step == t {
			for _, i := range events[0].Restart {
				for j := 0; j < n; j++ {
					cur.Set(i, j, alg.Invalid())
				}
				cur.Set(i, i, alg.Trivial())
			}
			if events[0].Mutate != nil {
				events[0].Mutate(adj)
			}
			events = events[1:]
			history[t] = cur
			continue
		}
		for i := 0; i < n; i++ {
			if !src.Active(t, i) {
				continue
			}
			for j := 0; j < n; j++ {
				if i == j {
					cur.Set(i, j, alg.Trivial())
					continue
				}
				best := alg.Invalid()
				for k := 0; k < n; k++ {
					if k == i {
						continue
					}
					if e, ok := adj.Edge(i, k); ok {
						past := history[src.Beta(t, i, k)]
						best = alg.Choice(best, e.Apply(past.Get(k, j)))
					}
				}
				cur.Set(i, j, best)
			}
		}
		history[t] = cur
	}
	return history
}

// Final evaluates δ and returns only δᵀ(X), retaining no more history
// than the schedule's β actually reaches and recomputing no more than the
// schedule's activations actually change (the engine's incremental path).
func Final[R any](
	alg core.Algebra[R],
	adj *matrix.Adjacency[R],
	start *matrix.State[R],
	sched *schedule.Schedule,
) *matrix.State[R] {
	return engine.Run(alg, adj, start, sched).Final()
}

// ConvergenceTime returns the earliest t such that the history is constant
// from t onwards and the state at t is a fixed point of σ, or (0, false)
// if the run never settles. This is Definition 6 restricted to the finite
// horizon: for the run to count as converged the settled state must be
// σ-stable, not merely unchanged because the schedule went quiet.
func ConvergenceTime[R any](
	alg core.Algebra[R],
	adj *matrix.Adjacency[R],
	history []*matrix.State[R],
) (int, bool) {
	last := history[len(history)-1]
	if !matrix.IsStable(alg, adj, last) {
		return 0, false
	}
	t := len(history) - 1
	for t > 0 && history[t-1].Equal(alg, last) {
		t--
	}
	return t, true
}

// Converged reports whether the δ-run over sched from start reaches the
// expected fixed point and stays there.
func Converged[R any](
	alg core.Algebra[R],
	adj *matrix.Adjacency[R],
	start *matrix.State[R],
	sched *schedule.Schedule,
	want *matrix.State[R],
) bool {
	final := Final(alg, adj, start, sched)
	return final.Equal(alg, want)
}
