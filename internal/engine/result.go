package engine

import (
	"sync"

	"repro/internal/matrix"
)

// Stats counts what a run did. Every field is pause-invariant: a run
// paused anywhere, or replayed to any step and continued, ends with Stats
// equal (==) to the run that was never interrupted. The embedded
// Progress, with the final state, is the run's identity — what a service
// result hash folds in. RowsSkipped is an exact diagnostic: RowsComputed
// + RowsSkipped = Σ|α(t)| over the non-event steps run. The activations
// of a jumped interlude are settled into it on read (interlude.go), so it
// is exact in every Stats value a caller gets — Stepper.Stats and
// Result.Stats — and Progress, which never counts, is what a reader that
// does not need it asks for.
type Stats struct {
	Progress
	// RowsSkipped counts activations discharged without recomputation
	// because none of the node's β-resolved inputs had changed since its
	// last recomputation — counted, not visited, inside a certified
	// interlude.
	RowsSkipped int
}

// Progress is the run's identity: where it stands and the work it did.
// Reading it costs nothing however many interlude steps the run jumped.
type Progress struct {
	// Steps is the number of time steps actually evaluated: the horizon
	// T, or less when the run terminated early at a certified fixed
	// point.
	Steps int
	// RowsComputed counts σ-row recomputations (activations that did any
	// work, full or partial).
	RowsComputed int
	// CellsComputed counts individual σ-cell evaluations: n for a node's
	// first activation, afterwards only the columns whose inputs changed.
	// Full recomputation would cost n·(RowsComputed+RowsSkipped); the
	// ratio to that closed form is the measure of the change-driven win.
	CellsComputed int
	// ConvergedAt is the time step after which the state never changed,
	// when the run certified convergence and returned early; −1
	// otherwise.
	ConvergedAt int
}

// Result is the outcome of one run: the final state and the run
// statistics. The state at a timeline event step is read off the Stepper
// paused there (Stepper.State).
type Result[R any] struct {
	final *matrix.State[R]
	stats Stats
	// owed is what the run's jumped interludes still owe stats.RowsSkipped,
	// counted by sched once, on the first Stats call (settled).
	owed    owed
	sched   Batched
	settled sync.Once
}

// Final returns δᵀ(X).
func (r *Result[R]) Final() *matrix.State[R] { return r.final }

// Progress returns the run's identity: its steps, work and convergence
// point, without counting anything.
func (r *Result[R]) Progress() Progress { return r.stats.Progress }

// Stats returns the run's counters. The first call after a run that
// jumped an interlude counts the jumped activations; like every other
// method of a Result, it is safe for concurrent use.
func (r *Result[R]) Stats() Stats {
	r.settled.Do(func() { r.stats.RowsSkipped += r.owed.settle(r.sched) })
	return r.stats
}

// Converged reports whether the run certified convergence and returned
// early, and if so the time step after which the state never changed
// (the asynchronous convergence time of Definition 6, made observable).
func (r *Result[R]) Converged() (int, bool) {
	return r.stats.ConvergedAt, r.stats.ConvergedAt >= 0
}
