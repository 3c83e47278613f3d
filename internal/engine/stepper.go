package engine

import (
	"fmt"

	"repro/internal/matrix"
)

// Stepper is one evaluation in progress, returned by Engine.Start. The
// paper's δ is a step-indexed recursion whose next state depends only on
// a bounded window of past ones, so a run the process still holds pauses
// for free: Step returns, and the next Step carries on from the same
// ring, dirty summaries and certification state — bit-identical, in cells
// and in Stats, to the run driven in one call. A run the process no
// longer holds is replayed: Start again and Step to where it stood. A
// Stepper holds pooled run scratch until Result or Close, and is for one
// goroutine at a time.
type Stepper[R any] struct {
	run stepperRun[R] // nil once Result or Close handed the scratch back
	res Result[R]     // filled by Result; here so a run costs one allocation for both
}

// stepperRun erases the row representation of a *run[R, Row].
type stepperRun[R any] interface {
	step(until int) bool
	completed() int
	progress() Progress
	statsNow() Stats
	state() *matrix.State[R]
	finish(res *Result[R])
	release()
}

// Step evaluates time steps At()+1 … until (clamped to the horizon) and
// reports whether the run is done: the horizon was reached, or
// convergence was certified and the run stopped early.
func (s *Stepper[R]) Step(until int) (done bool) { return s.run == nil || s.run.step(until) }

// At returns the last completed step.
func (s *Stepper[R]) At() int {
	if s.run == nil {
		return s.res.stats.Steps
	}
	return s.run.completed()
}

// Progress returns the run's identity as of the last completed step — the
// Stats short of RowsSkipped — and, unlike Stats, never counts a jumped
// interlude's activations.
func (s *Stepper[R]) Progress() Progress {
	if s.run == nil {
		return s.res.stats.Progress
	}
	return s.run.progress()
}

// Stats returns the run counters as of the last completed step: at every
// step the same whether the run got there in one call or in slices. It
// counts the activations of the interludes jumped since the last call
// (Batched.CountActive); a reader that needs only the identity asks
// Progress.
func (s *Stepper[R]) Stats() Stats {
	if s.run == nil {
		return s.res.Stats()
	}
	return s.run.statsNow()
}

// State materialises the state after the last completed step — the
// start state at step 0, the post-event state at an event step — without
// disturbing the run. After Result it is the final state; after Close,
// nil.
func (s *Stepper[R]) State() *matrix.State[R] {
	if s.run == nil {
		return s.res.final
	}
	return s.run.state()
}

// Result ends the run where it stands — normally after Step reported
// done — and returns its outcome, reports it to the ObserveRuns hook, and
// parks the scratch for the next run. Further calls return the same
// Result; after Close it is nil.
func (s *Stepper[R]) Result() *Result[R] {
	if s.run != nil {
		s.run.finish(&s.res)
		s.run = nil
	}
	if s.res.final == nil {
		return nil
	}
	return &s.res
}

// Close abandons the run — no Result, no observation — and parks the
// scratch for the next run. It is a no-op after Result or Close.
func (s *Stepper[R]) Close() {
	if s.run != nil {
		s.run.release()
		s.run = nil
	}
}

// Start begins a run of δ from start over src, playing the given event
// timeline (nil for none), and returns it paused at step 0. A nil start
// is I, the identity matrix (trivial on the diagonal, invalid elsewhere),
// encoded row by row into the run's own rows, so a caller that starts
// from I builds no dense state. Run, RunSnapshot and Restore are wrappers
// over Start, Step and Result.
//
// A run keeps no copy of the states it passes through: to read the state
// at a timeline event's step — after the event's restarts and mutation,
// before any later activation, the state the literal evaluator
// async.RunTimelineReference holds there — Step to that step and read
// State.
//
// The source decides the run's shape: its history ring holds
// src.MaxLookback() past states, and the run certifies convergence — and
// stops at a certified fixed point — exactly when src implements Fair.
//
// The run picks its row representation once, here: packed columnar lanes
// when the algebra packs (core.Columnar) and every edge compiles, []R
// slices otherwise. Both are bit-identical — in cells and in Stats. A
// timeline does not change the choice: a mutation step recompiles the
// run's kernel table for the new topology (an edge installed with no
// compiled form folds through the interface) and empties its edge-output
// memos. Timelines ran on the interface path until the packed path's
// costs were cut (row eviction in O(rows replaced), one row step for both
// paths, kernels deduplicated by edge value). Measured on the service's
// ring-64 request (BenchmarkServiceRequest, alternating pairs, 2 vCPUs),
// packed lanes and the tail jump below take 0.80–0.89 of the time of
// the interface path marching its tail, at 59 allocations against 49;
// through the daemon, svc_sliced_n64's p50 latency went 2.93 → 2.55 ms
// (14 of 14 pairs, BENCH_pr49.json).
//
// A certified fixed point is not marched through either: once it is
// absorbing — quiet for longer than the source's MaxLookback, every row
// read after its inputs' last change — Step jumps the steps ahead without
// asking the source anything, in time that does not grow with the gap:
// with an event pending, the quiescent interlude to the event (or to
// until); after the last one, the certified tail to where the marching
// run certifies, where the run stops. The jumped activations are owed to
// RowsSkipped and counted (Batched.CountActive) when Stats is read, never
// by Progress.
//
// The engine's adjacency is mutated in place as the timeline plays; the
// engine remains valid afterwards and evaluates the post-event topology.
// Callers that need the original topology untouched build the engine over
// a clone.
//
// A start state, source or timeline that does not fit the engine's
// topology — a MaxLookback or FairPeriod below 1 included — is returned
// as an error.
func (e *Engine[R]) Start(start *matrix.State[R], src Source, events []TimelineEvent[R]) (*Stepper[R], error) {
	n, T := src.Nodes(), src.Horizon()
	if n != e.adj.N {
		return nil, fmt.Errorf("engine: source has %d nodes but adjacency has %d", n, e.adj.N)
	}
	if start != nil && start.N != n {
		return nil, fmt.Errorf("engine: the start state does not have the adjacency's %d nodes", n)
	}
	if err := validateTimeline(events, n, T); err != nil {
		return nil, err
	}
	window := src.MaxLookback()
	if window < 1 {
		return nil, fmt.Errorf("engine: %T.MaxLookback() = %d, want ≥ 1", src, window)
	}
	f, doTerm := src.(Fair)
	fairP := 0
	if doTerm {
		if fairP = f.FairPeriod(); fairP < 1 {
			return nil, fmt.Errorf("engine: %T.FairPeriod() = %d, want ≥ 1", src, fairP)
		}
	}
	if cs := e.columnarFor(); cs != nil {
		return &Stepper[R]{run: startRun(e, colOps[R]{cs}, src, events, window, doTerm, fairP, start)}, nil
	}
	return &Stepper[R]{run: startRun(e, genOps[R]{e: e}, src, events, window, doTerm, fairP, start)}, nil
}
