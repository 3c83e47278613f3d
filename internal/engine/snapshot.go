package engine

import (
	"fmt"

	"repro/internal/matrix"
)

// Snapshot names a point of a run: its start state and the last completed
// step. It holds no evaluation state. δ's state at step k is a
// deterministic function of the start state and the schedule (α, β), and
// every source is a pure function of its parameters, so the run at Step
// is rebuilt by replaying it: Start from Start and Step to Step.
type Snapshot[R any] struct {
	Start *matrix.State[R]
	Step  int
}

// RunSnapshot evaluates δ from start over src exactly like Run and names
// the point right after step at: Start, then Step(at). With halt the run
// stops there unobserved — the preemption form — and the returned Result
// covers only steps 1..at; otherwise the run continues to its normal end.
//
// The returned snapshot is nil when the run certified convergence and
// stopped before reaching at.
//
// RunSnapshot and Restore stay only for cmd/bench, which times them; they
// go with its checkpoint rows when the benchmark is re-based (ROADMAP
// item 1).
func (e *Engine[R]) RunSnapshot(start *matrix.State[R], src Source, at int, halt bool) (*Result[R], *Snapshot[R]) {
	if T := src.Horizon(); at < 1 || at > T {
		panic(fmt.Sprintf("engine: snapshot step %d outside [1, %d]", at, T))
	}
	st, err := e.Start(start, src, nil)
	if err != nil {
		panic(err.Error())
	}
	st.Step(at)
	if st.Progress().ConvergedAt >= 0 {
		return st.Result(), nil
	}
	snap := &Snapshot[R]{Start: start, Step: at}
	if halt {
		res := &Result[R]{final: st.State(), stats: st.Stats()}
		st.Close()
		return res, snap
	}
	st.Step(src.Horizon())
	return st.Result(), snap
}

// Restore replays a snapshotted run over src and continues it to its
// end: Start from snap.Start, Step to the horizon, Result. It stays only
// for cmd/bench, as RunSnapshot does.
func (e *Engine[R]) Restore(snap *Snapshot[R], src Source) (*Result[R], error) {
	if T := src.Horizon(); snap.Step < 1 || snap.Step > T {
		return nil, fmt.Errorf("engine: snapshot at step %d outside [1, %d]", snap.Step, T)
	}
	st, err := e.Start(snap.Start, src, nil)
	if err != nil {
		return nil, err
	}
	st.Step(src.Horizon())
	return st.Result(), nil
}
