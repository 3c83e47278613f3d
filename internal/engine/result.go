package engine

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/matrix"
)

// Result is the outcome of one Engine.Run: the final state δᵀ(X), the run
// statistics, and — when the run retained it — the full history.
type Result[R any] struct {
	alg     core.Algebra[R]
	horizon int
	final   *matrix.State[R]
	snaps   [][][]R // non-nil only when history was retained
	stats   Stats
	marks   []*matrix.State[R] // per-event snapshots of a RunTimeline run
}

// Final returns δᵀ(X).
func (r *Result[R]) Final() *matrix.State[R] { return r.final }

// Horizon returns the number of time steps evaluated: the source's T, or
// fewer when the run terminated early at a certified fixed point.
func (r *Result[R]) Horizon() int { return r.horizon }

// Stats returns the run's counters.
func (r *Result[R]) Stats() Stats { return r.stats }

// Converged reports whether the run certified convergence and returned
// early, and if so the time step after which the state never changed
// (the asynchronous convergence time of Definition 6, made observable).
func (r *Result[R]) Converged() (int, bool) {
	return r.stats.ConvergedAt, r.stats.ConvergedAt >= 0
}

// Marks returns the state at each timeline event step of a RunTimeline
// run (after the event's restarts, before any subsequent activation), in
// event order. Empty for plain Run calls. Mark k is the state the
// literal evaluator, async.RunTimelineReference, holds at event k's step.
func (r *Result[R]) Marks() []*matrix.State[R] { return r.marks }

// Retained reports whether the run kept its full history, i.e. whether At
// and History are available.
func (r *Result[R]) Retained() bool { return r.snaps != nil }

// At materialises δᵗ(X). It panics when the run was memory-bounded; use
// Config.HistoryWindow = KeepAll (or an unbounded source in auto mode) to
// retain history.
func (r *Result[R]) At(t int) *matrix.State[R] {
	if r.snaps == nil {
		panic("engine: history was not retained; run with Config{HistoryWindow: KeepAll}")
	}
	if t < 0 || t >= len(r.snaps) {
		panic(fmt.Sprintf("engine: time %d outside history [0, %d]", t, len(r.snaps)-1))
	}
	return materialise(r.alg, r.snaps[t])
}

// History materialises the whole run [δ⁰(X), …, δᵀ(X)] in the legacy
// []*matrix.State form consumed by async.ConvergenceTime and Replay. Like
// At, it requires a history-retaining run.
func (r *Result[R]) History() []*matrix.State[R] {
	if r.snaps == nil {
		panic("engine: history was not retained; run with Config{HistoryWindow: KeepAll}")
	}
	out := make([]*matrix.State[R], len(r.snaps))
	for t := range r.snaps {
		out[t] = materialise(r.alg, r.snaps[t])
	}
	return out
}
