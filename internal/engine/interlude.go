package engine

import "slices"

// A fixed point of σ is absorbing for δ once every β reads at or after
// the last change: an activation then resolves rows that did not move
// since the node's own last read, so it skips, and the state, the dirty
// summaries and the certification stay exactly as they are. While a
// timeline event is pending that cannot end the run, but the steps up to
// the event need not be evaluated: the run jumps them, and owes their
// activations to Stats.RowsSkipped until someone reads it.

// jump advances a run whose every node is certified, at step t with an
// event still pending, across the quiescent interlude to the step before
// the event (or to until), and returns the step it reached — t when the
// fixed point is not absorbing yet. It is once the frontier has been
// quiet for longer than the window (every β the source can draw, and
// every state in the ring, sits after lastChange) and every row was last
// read at or after its inputs' last change (settled). The fairness period
// plays no part: it bounds how long termination takes to detect, not
// which reads can reach behind the fixed point.
//
// Nothing is evaluated and the source is asked nothing: the jumped steps
// go on the run's owed ranges. lastRead stays put: it sits at or after
// every change before the event, the marching run's would end before the
// event, and nothing changes in between, so both resolve the same dirty
// sets afterwards. Rotating the ring by the jump keeps every resident's
// age, so put still evicts the oldest state and row sharing stays
// contiguous in time.
func (r *run[R, Row]) jump(t, until, lastChange int) int {
	to := min(until, r.events[r.nextEv].Step-1)
	if to <= t || t-lastChange <= r.window || !r.settled() {
		return t
	}
	r.owed.add(t+1, to)
	k := (to - t) % len(r.ring)
	slices.Reverse(r.ring)
	slices.Reverse(r.ring[:k])
	slices.Reverse(r.ring[k:])
	return to
}

// settled reports whether every node holds a row last read at or after
// each neighbour's last change: an activation whose β values also sit
// there finds no dirty input and skips.
func (r *run[R, Row]) settled() bool {
	for i := 0; i < r.n; i++ {
		for _, k := range r.nbr[r.nbrOff[i]:r.nbrOff[i+1]] {
			if r.lastComp[i] < 0 || r.lastRead[i*r.n+int(k)] < r.inc.rowMax[k] {
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
