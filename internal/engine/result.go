package engine

import "repro/internal/matrix"

// Result is the outcome of one run: the final state, the run statistics,
// and the state at each timeline event step.
type Result[R any] struct {
	final *matrix.State[R]
	stats Stats
	marks []*matrix.State[R] // per-event snapshots of a timeline run
}

// Final returns δᵀ(X).
func (r *Result[R]) Final() *matrix.State[R] { return r.final }

// Stats returns the run's counters.
func (r *Result[R]) Stats() Stats { return r.stats }

// Converged reports whether the run certified convergence and returned
// early, and if so the time step after which the state never changed
// (the asynchronous convergence time of Definition 6, made observable).
func (r *Result[R]) Converged() (int, bool) {
	return r.stats.ConvergedAt, r.stats.ConvergedAt >= 0
}

// Marks returns the state at each timeline event step of a run started
// with a timeline (after the event's restarts, before any subsequent
// activation), in event order; empty without one. Mark k is the state the
// literal evaluator, async.RunTimelineReference, holds at event k's step.
func (r *Result[R]) Marks() []*matrix.State[R] { return r.marks }
