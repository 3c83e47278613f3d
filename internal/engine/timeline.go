package engine

import (
	"fmt"

	"repro/internal/matrix"
)

// TimelineEvent is one scheduled mid-run fault: at time step Step no node
// activates; instead the listed nodes restart and the mutation, if any,
// edits the topology or policies in place. This is the Section 3.2
// dynamic model made operational inside one δ run: a change turns the
// remainder of the run into a new problem instance that starts from the
// current state — except that here the incremental machinery carries
// over, so after the event only the affected columns recompute. A run
// plays a timeline from Engine.Start; a Stepper paused at an event step
// holds the post-event state (Stepper.State), so it can be held to the
// literal evaluator playing the same timeline
// (async.RunTimelineReference).
type TimelineEvent[R any] struct {
	// Step is the time step the event fires at, 1 ≤ Step ≤ horizon.
	// Events must be given in strictly increasing Step order.
	Step int
	// Mutate, when non-nil, edits the engine's adjacency (and/or the
	// policy state the edge functions close over) in place.
	Mutate func(adj *matrix.Adjacency[R])
	// Restart lists nodes that crash and restart at this step: their row
	// is reset to the identity row (trivial to self, invalid elsewhere),
	// the stepped engine's counterpart of the simulator's and the live
	// network's RestartNode.
	Restart []int
	// Invalidate lists rows whose incremental reuse is abandoned at this
	// step: their next activation recomputes every destination in full
	// (with change tracking — downstream nodes still only see the columns
	// that actually moved). With Mutate it names the nodes whose in-edge
	// set or in-edge functions Mutate touches; nil with a non-nil Mutate
	// invalidates every row, so name the rows — that is what keeps an
	// event cheap. Without Mutate it is how a suspended node — a crash
	// window whose activations the schedule masks — rejoins the run: its
	// first activation after recovery rebuilds its row from scratch,
	// exactly as a router restored from a snapshot of its own table
	// would. An event may carry only Invalidate.
	Invalidate []int
}

// validateTimeline checks the shape contract of an event list against a
// run of n nodes and horizon T.
func validateTimeline[R any](events []TimelineEvent[R], n, T int) error {
	last := 0
	for idx, ev := range events {
		if ev.Step <= last {
			return fmt.Errorf("engine: timeline event %d at step %d, want strictly increasing steps (previous %d)", idx, ev.Step, last)
		}
		if ev.Step > T {
			return fmt.Errorf("engine: timeline event %d at step %d beyond horizon %d", idx, ev.Step, T)
		}
		if ev.Mutate == nil && len(ev.Restart) == 0 && len(ev.Invalidate) == 0 {
			return fmt.Errorf("engine: timeline event %d at step %d does nothing (no Mutate, no Restart, no Invalidate)", idx, ev.Step)
		}
		for _, i := range ev.Restart {
			if i < 0 || i >= n {
				return fmt.Errorf("engine: timeline event %d restarts node %d, want [0, %d)", idx, i, n)
			}
		}
		for _, i := range ev.Invalidate {
			if i < 0 || i >= n {
				return fmt.Errorf("engine: timeline event %d invalidates row %d, want [0, %d)", idx, i, n)
			}
		}
		last = ev.Step
	}
	return nil
}
