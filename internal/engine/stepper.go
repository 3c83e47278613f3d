package engine

import (
	"errors"
	"fmt"

	"repro/internal/matrix"
)

// Stepper is one evaluation in progress, returned by Engine.Start and
// Engine.Resume. The paper's δ is a step-indexed recursion whose next
// state depends only on a bounded window of past ones, so a run the
// process still holds pauses for free: Step returns, and the next Step
// carries on from the same ring, dirty summaries and certification state
// — bit-identical, in cells and in Stats, to the run driven in one call.
// A Stepper holds pooled run scratch until Result or Close, and is for
// one goroutine at a time.
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
	snapshot() (*Snapshot[R], error)
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
// step the same whether the run got there in one call, in slices, or
// through Snapshot and Resume. It counts the activations of the
// interludes jumped since the last call (Batched.CountActive); a reader
// that needs only the identity asks Progress.
func (s *Stepper[R]) Stats() Stats {
	if s.run == nil {
		return s.res.Stats()
	}
	return s.run.statsNow()
}

// Snapshot captures the complete resumable state after the last completed
// step without disturbing the run; Resume on any engine over the same
// algebra, topology and source continues from it bit-identically. It is
// an error at step 0 (nothing has run: restart from the start state), at
// a timeline event step (no activation to capture after), on a run that
// certified convergence (it has no continuation), and after Result or
// Close.
func (s *Stepper[R]) Snapshot() (*Snapshot[R], error) {
	if s.run == nil {
		return nil, errors.New("engine: the run has ended; nothing to snapshot")
	}
	return s.run.snapshot()
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
// timeline (nil for none), and returns it paused at step 0. Run,
// RunSnapshot and Restore are wrappers over Start/Resume, Step and
// Result.
//
// The source decides the run's shape: its history ring holds
// src.MaxLookback() past states, and the run certifies convergence — and
// stops at a certified fixed point — exactly when src implements Fair.
//
// The run picks its row representation once, here: packed columnar lanes
// when the algebra packs (core.Columnar), every edge compiles and the run
// has no timeline; []R slices otherwise.
// Both are bit-identical — in cells and in Stats — and both can be
// snapshotted and resumed. Timeline runs stay on the interface path by
// measurement, not for want of a recompile: refreshing the kernels at a
// mutation step keeps every differential green, but at the service's
// ≈ 6.6 cells per computed row the packed path's per-row set-up and the
// per-request kernel compile cost more than the interface kernel saves:
// p50 latency +12–16 % on both service workloads, 4 of 4 alternating
// pairs, and a warm request's allocations going from 61 to 348.
//
// While events are pending a certified fixed point does not end the run,
// but it is not marched through either: once it is absorbing — quiet for
// longer than the source's MaxLookback, every row read after its inputs'
// last change — Step jumps the quiescent interlude to the next event (or
// to until) without asking the source anything, in time that does not
// grow with the gap. The jumped activations are owed to RowsSkipped and
// counted (Batched.CountActive) when Stats is read, never by Progress.
// After the last event fires, a Fair run may stop early again.
//
// The engine's adjacency is mutated in place as the timeline plays; the
// engine remains valid afterwards and evaluates the post-event topology.
// Callers that need the original topology untouched build the engine over
// a clone.
//
// A source or timeline that does not fit the engine's topology — a
// MaxLookback or FairPeriod below 1 included — is returned as an error,
// as from Resume.
func (e *Engine[R]) Start(start *matrix.State[R], src Source, events []TimelineEvent[R]) (*Stepper[R], error) {
	return e.begin(start, nil, src, events)
}

// Resume rebuilds a run from snap and returns it paused right after step
// snap.Step. src must describe the schedule the snapshot was taken under
// (for the lazy sources, equal parameters; for a materialised schedule,
// the same recording), and the engine must be over the same algebra, on
// the topology as it stood at snap.Step: the caller replays the mutations of already-fired events
// onto the instance first and passes only the events still to fire.
// Everything observable is validated and returned as an error — a
// corrupt or mismatched snapshot never panics.
func (e *Engine[R]) Resume(snap *Snapshot[R], src Source, events []TimelineEvent[R]) (*Stepper[R], error) {
	return e.begin(nil, snap, src, events)
}

// begin is Start (rs nil) and Resume (start nil).
func (e *Engine[R]) begin(start *matrix.State[R], rs *Snapshot[R], src Source, events []TimelineEvent[R]) (*Stepper[R], error) {
	n, T := src.Nodes(), src.Horizon()
	if n != e.adj.N {
		return nil, fmt.Errorf("engine: source has %d nodes but adjacency has %d", n, e.adj.N)
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
	if rs != nil {
		if err := rs.validate(); err != nil {
			return nil, err
		}
		switch {
		case rs.N != n:
			return nil, fmt.Errorf("engine: snapshot has %d nodes but source has %d", rs.N, n)
		case rs.Window != window:
			return nil, fmt.Errorf("engine: snapshot window %d but the source's MaxLookback is %d", rs.Window, window)
		case doTerm != (rs.Certified != nil):
			return nil, fmt.Errorf("engine: snapshot certifying=%v but this run certifying=%v", rs.Certified != nil, doTerm)
		case rs.Step > T:
			return nil, fmt.Errorf("engine: snapshot at step %d beyond horizon %d", rs.Step, T)
		case len(events) > 0 && events[0].Step <= rs.Step:
			return nil, fmt.Errorf("engine: timeline event at step %d not after snapshot step %d (already-fired events must not be replayed)",
				events[0].Step, rs.Step)
		}
	}
	if len(events) == 0 {
		if cs := e.columnarFor(); cs != nil {
			return &Stepper[R]{run: startRun(e, colOps[R]{e: e, cs: cs}, src, events, window, doTerm, fairP, start, rs)}, nil
		}
	}
	return &Stepper[R]{run: startRun(e, genOps[R]{e: e}, src, events, window, doTerm, fairP, start, rs)}, nil
}
