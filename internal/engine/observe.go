package engine

import "sync/atomic"

// runObserver is the process-wide per-run observation hook. It is an
// atomic pointer so installation is race-free against concurrent runs,
// and loading it on the completion path costs one atomic read — nothing
// per cell, nothing per step, and no allocation, which is what keeps the
// warm-run allocation gate honest.
var runObserver atomic.Pointer[func(Progress)]

// ObserveRuns installs fn to be called once per completed run with that
// run's final Progress — the identity, never RowsSkipped, so observing a
// run counts none of its jumped activations. "Completed" means the run
// loop finished on its own terms — horizon reached or convergence
// certified — and its Result was taken: a run abandoned with Close (a
// halted RunSnapshot included) is not observed, and a service run paused
// across many quanta is observed exactly once, when it finishes. fn must be safe for concurrent calls (engines run
// concurrently) and must not block; it is invoked on the run's goroutine.
// Passing nil removes the hook.
func ObserveRuns(fn func(Progress)) {
	if fn == nil {
		runObserver.Store(nil)
		return
	}
	runObserver.Store(&fn)
}

// observeRun fires the hook for a finished run, if one is installed.
func observeRun(p Progress) {
	if fn := runObserver.Load(); fn != nil {
		(*fn)(p)
	}
}
