package engine

import (
	"errors"
	"fmt"

	"repro/internal/matrix"
)

// Snapshot is the complete resumable state of a bounded-window run right
// after some step k: the resident history ring (materialised), the exact
// change-tracking matrices (last-changed, last-recomputation, last-read),
// the convergence-certification state, and the run counters. Restore
// rebuilds a run from it and continues at step k+1; the continuation is
// bit-identical — in cells and in the work counters — to the run that
// was never interrupted, which is what makes preemption, crash recovery
// and multi-process hand-off safe.
//
// The derived dirty summaries (word/row maxima and the change-mask ring)
// are deliberately not captured: they are reconstructed from the
// last-changed matrix at restore, which is smaller on the wire and
// provably equivalent (see rebuildIncSummaries).
//
// The schedule-source cursor is the step index itself: the engine's lazy
// sources (Hashed, Synchronous, RoundRobin) are pure functions of
// (seed, t, i, k), so resuming at step k+1 needs nothing beyond Step.
// Restore must be given a source equal to the one the snapshot was taken
// under; it validates everything it can observe (node count, window,
// certification mode) and trusts the caller for the rest.
type Snapshot[R any] struct {
	// N is the node count; Step the last completed step; Window the
	// history ring depth the run was using.
	N, Step, Window int
	// States are the resident ring states, oldest first; the last entry
	// is δ^Step(X). len(States) = min(Step, Window) + 1.
	States []*matrix.State[R]
	// Ver is the last-changed matrix (ver[k·n+j] = time node k's route to
	// j last changed), LastComp the per-node last-recomputation times
	// (−1 = never), LastRead the β each node used at its last
	// recomputation.
	Ver      []int32
	LastComp []int32
	LastRead []int32
	// Certified, non-nil exactly when the run was certifying convergence
	// (a Fair source with termination on), marks the nodes certified in
	// the current generation; LastChange is the last step the state
	// changed.
	Certified  []bool
	LastChange int
	// Stats are the run counters at the capture point, cell counts
	// folded in: Steps = Step and ConvergedAt = −1 (a certified run has no
	// continuation to capture). A restored run continues them, so the
	// continuation's final Stats equal the uninterrupted run's.
	Stats Stats
}

// validate checks the snapshot's internal consistency, returning a
// descriptive error rather than letting malformed (e.g. decoded but
// corrupt) state panic deep inside the evaluation loop.
func (s *Snapshot[R]) validate() error {
	if s.N < 1 {
		return fmt.Errorf("engine: snapshot has %d nodes", s.N)
	}
	if s.Window < 1 {
		return fmt.Errorf("engine: snapshot window %d, want ≥ 1", s.Window)
	}
	if s.Step < 1 {
		return fmt.Errorf("engine: snapshot at step %d, want ≥ 1", s.Step)
	}
	want := s.Step + 1
	if s.Window < s.Step {
		want = s.Window + 1
	}
	if len(s.States) != want {
		return fmt.Errorf("engine: snapshot at step %d with window %d holds %d states, want %d",
			s.Step, s.Window, len(s.States), want)
	}
	for i, st := range s.States {
		if st == nil || st.N != s.N {
			return fmt.Errorf("engine: snapshot state %d malformed", i)
		}
	}
	if len(s.Ver) != s.N*s.N || len(s.LastRead) != s.N*s.N || len(s.LastComp) != s.N {
		return fmt.Errorf("engine: snapshot change-tracking matrices have wrong shape")
	}
	for j, v := range s.Ver {
		if int(v) > s.Step || v < 0 {
			return fmt.Errorf("engine: snapshot ver[%d]=%d outside [0, %d]", j, v, s.Step)
		}
	}
	if s.Certified != nil && len(s.Certified) != s.N {
		return fmt.Errorf("engine: snapshot certification state has wrong shape")
	}
	if s.LastChange < 0 || s.LastChange > s.Step {
		return fmt.Errorf("engine: snapshot last change %d outside [0, %d]", s.LastChange, s.Step)
	}
	if s.Stats.Steps != s.Step || s.Stats.ConvergedAt != -1 {
		return fmt.Errorf("engine: snapshot at step %d carries stats %+v, want that step and convergedAt −1", s.Step, s.Stats)
	}
	return nil
}

// snapshot materialises the run's complete state after its last completed
// step. It only reads; the run continues undisturbed.
func (r *run[R, Row]) snapshot() (*Snapshot[R], error) {
	t := r.t
	switch {
	case r.window < 0:
		return nil, errors.New("engine: a keep-everything run has no compact state to snapshot (the source must be Bounded or Fair, or set Config.HistoryWindow > 0)")
	case t == 0:
		return nil, errors.New("engine: nothing to snapshot at step 0; start again from the start state")
	case r.converged:
		return nil, fmt.Errorf("engine: the run certified convergence at step %d and has no continuation to snapshot", t)
	case r.nextEv > 0 && r.events[r.nextEv-1].Step == t:
		return nil, fmt.Errorf("engine: step %d is a timeline event step (no activation to capture after)", t)
	}
	s := &Snapshot[R]{N: r.n, Step: t, Window: r.window, LastChange: r.lastChange, Stats: r.statsNow()}
	for b := max(t-r.window, 0); b <= t; b++ {
		s.States = append(s.States, r.ops.materialise(r.ring[b%(r.window+1)]))
	}
	s.Ver = append([]int32(nil), r.inc.ver...)
	s.LastComp = append([]int32(nil), r.lastComp...)
	s.LastRead = append([]int32(nil), r.lastRead...)
	if r.doTerm {
		s.Certified = make([]bool, r.n)
		for i := range s.Certified {
			s.Certified[i] = r.certStmp[i] == r.certGen
		}
	}
	return s, nil
}

// rebuildIncSummaries reconstructs the derived dirty summaries — the
// word and row maxima and the change-mask ring — from the exact
// last-changed matrix, after Ver/LastComp/LastRead have been restored.
//
// The mask ring reconstruction places each column's bit at its latest
// change step only, where the original run also left bits at older
// in-window change steps. The dirty resolution is unaffected: it only
// ever consumes the ring as a union over an interval (l, top], and both
// the original and the reconstructed union equal {j : ver[j] > l} — a
// column that changed in the interval has its latest change there too
// (nothing changes after top), and a column whose latest change is at or
// before l contributes to no slot of the interval. The scan path reads
// ver directly and the word/row maxima are exactly the per-word and
// per-row maxima of ver, so every threshold compare resolves the same
// dirty set as the uninterrupted run — which is why restored runs
// recompute exactly the same cells.
func rebuildIncSummaries(inc *incShared, top int) {
	n, wper := inc.n, inc.wper
	clear(inc.wordMax)
	clear(inc.rowMax)
	clear(inc.hist)
	clear(inc.histStamp)
	for k := 0; k < n; k++ {
		row := inc.ver[k*n : (k+1)*n]
		var rmax int32
		for j, v := range row {
			if v == 0 {
				continue
			}
			wi := j >> 6
			if v > inc.wordMax[k*wper+wi] {
				inc.wordMax[k*wper+wi] = v
			}
			if v > rmax {
				rmax = v
			}
			if int(v) > top-histH {
				slot := k*histH + int(v)&(histH-1)
				inc.hist[slot*wper+wi] |= 1 << (j & 63)
				inc.histStamp[slot] = v
			}
		}
		inc.rowMax[k] = rmax
	}
	inc.top = int32(top)
}

// RunSnapshot evaluates δ from start over src exactly like Run while
// capturing a resumable Snapshot of the complete evaluation state right
// after step at. With halt the run stops there — the preemption /
// checkpoint-and-exit form — and the returned Result covers only steps
// 1..at; otherwise the run continues to its normal end, so a single call
// yields both the uninterrupted result and the snapshot: the
// differential pair the restore tests compare. It is a wrapper over
// Start, Step(at), Snapshot and Result.
//
// Snapshot capture requires a bounded history window (a KeepAll run has
// no compact resumable state). The returned snapshot is nil when the run
// certified convergence and stopped before reaching at.
func (e *Engine[R]) RunSnapshot(start *matrix.State[R], src Source, at int, halt bool) (*Result[R], *Snapshot[R]) {
	if T := src.Horizon(); at < 1 || at > T {
		panic(fmt.Sprintf("engine: snapshot step %d outside [1, %d]", at, T))
	}
	st, err := e.Start(start, src, nil)
	if err != nil {
		panic(err.Error())
	}
	st.Step(at)
	if st.Stats().ConvergedAt >= 0 {
		return st.Result(), nil
	}
	snap, err := st.Snapshot()
	if err != nil {
		st.Close()
		panic(err.Error())
	}
	if halt {
		// A preemption, not a completion: the run is abandoned unobserved
		// and the halted prefix's result is read off the snapshot.
		st.Close()
		return &Result[R]{alg: e.alg, horizon: at, final: snap.States[len(snap.States)-1], stats: snap.Stats}, snap
	}
	st.Step(src.Horizon())
	return st.Result(), snap
}

// Restore resumes a snapshotted run and continues it over src from step
// snap.Step+1 to its end: Resume, Step to the horizon, Result.
func (e *Engine[R]) Restore(snap *Snapshot[R], src Source) (*Result[R], error) {
	st, err := e.Resume(snap, src, nil)
	if err != nil {
		return nil, err
	}
	st.Step(src.Horizon())
	return st.Result(), nil
}
