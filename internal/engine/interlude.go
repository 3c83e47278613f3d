package engine

import "slices"

// A fixed point of σ is absorbing for δ once every β reads at or after
// the last change: an activation then resolves rows that did not move
// since the node's own last read, so it skips, and the state, the dirty
// summaries and the certification stay exactly as they are. The steps
// such a run would march need not be evaluated: while a timeline event
// is pending the run jumps them to the event, and after the last event
// it jumps them to where the marching run certifies convergence. Either
// way it owes their activations to Stats.RowsSkipped until someone reads
// it.

// jump advances a run whose every node is certified, at step t, across
// the quiescent steps ahead, and returns the step it reached — t when
// the fixed point is not absorbing yet — and whether the run certified
// convergence there. With an event pending it stops at the step before
// the event (or at until). With none it stops at lastChange +
// FairPeriod − 1, the first step at which the marching run has been
// quiet for a fairness period and certifies (or at until, short of it).
//
// The fixed point is absorbing once the frontier has been quiet for
// longer than the window (every β the source can draw, and every state
// in the ring, sits after lastChange) and every row was last read at or
// after its inputs' last change (settled). The fairness period plays no
// part in that: it bounds how long termination takes to detect, not
// which reads can reach behind the fixed point.
//
// Nothing is evaluated and the source is asked nothing: the jumped steps
// go on the run's owed ranges. lastRead stays put: it sits at or after
// every change so far, the marching run's would end later, and nothing
// changes in between, so both resolve the same dirty sets afterwards.
// Rotating the ring by the jump keeps every resident's age, so put still
// evicts the oldest state and row sharing stays contiguous in time; each
// state's replaced-row list rotates with it.
func (r *run[R, Row]) jump(t, until, lastChange int) (int, bool) {
	to, done := until, false
	if r.nextEv < len(r.events) {
		to = min(to, r.events[r.nextEv].Step-1)
	} else if tail := lastChange + r.fairP - 1; tail <= to {
		to, done = tail, true
	}
	if to <= t || t-lastChange <= r.window || !r.settled() {
		return t, false
	}
	r.owed.add(t+1, to)
	k := (to - t) % len(r.ring)
	rotate(r.ring, k)
	rotate(r.repl, k)
	return to, done
}

// rotate moves every element of s k places on, cyclically.
func rotate[T any](s []T, k int) {
	slices.Reverse(s)
	slices.Reverse(s[:k])
	slices.Reverse(s[k:])
}

// settled reports whether every node holds a row last read at or after
// each neighbour's last change: an activation whose β values also sit
// there finds no dirty input and skips.
func (r *run[R, Row]) settled() bool {
	for i := 0; i < r.n; i++ {
		for x := r.nbrOff[i]; x < r.nbrOff[i+1]; x++ {
			if r.lastComp[i] < 0 || r.lastRead[x] < r.inc.rowMax[r.nbr[x]] {
				return false
			}
		}
	}
	return true
}

// span is the jumped steps t0 … t1.
type span struct{ t0, t1 int }

// owed is the jumped steps whose activations RowsSkipped does not count
// yet, in ascending order. A run stepped in quanta jumps one interlude in
// as many pieces, so adjacent spans merge: an interlude owes one span,
// and a warm run's backing never grows.
type owed []span

func (o *owed) add(t0, t1 int) {
	if l := len(*o); l > 0 && (*o)[l-1].t1+1 == t0 {
		(*o)[l-1].t1 = t1
		return
	}
	*o = append(*o, span{t0, t1})
}

// settle returns the activations sched draws over the owed steps, and
// owes nothing afterwards.
func (o *owed) settle(sched Batched) (cnt int) {
	for _, s := range *o {
		cnt += sched.CountActive(s.t0, s.t1)
	}
	*o = (*o)[:0]
	return cnt
}
