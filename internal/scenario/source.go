package scenario

import "repro/internal/engine"

// source is the scenario's schedule: one pure function of its text, the
// same (α, β) behind dbfsim -scenario, dbfsimd and the reference replay
// (defaults: activation 0.6, staleness 4). It is a Hashed source —
// resumable from nothing but the step index, and Fair, so a run stops
// early once it certifies convergence after the last event — and, only
// when the timeline crashes a node, that Hashed behind a mask that keeps
// the node silent while it is down.
func source(sc *Scenario, n int) engine.Source {
	mille := int(sc.ActProb * 1000)
	if mille == 0 {
		mille = 600
	}
	stale := sc.MaxStaleness
	if stale == 0 {
		stale = 4
	}
	h := engine.Hashed{
		N: n, T: sc.Horizon, Seed: uint64(sc.Seed),
		ActivationProbMille: mille, MaxStaleness: stale,
	}
	var down [][]downWindow // per node, nil without crash events
	for _, ev := range sc.Events {
		switch ev.Kind {
		case NodeCrash:
			if down == nil {
				down = make([][]downWindow, n)
			}
			down[ev.Node] = append(down[ev.Node], downWindow{from: ev.Step})
		case NodeRecover: // Validate pairs it with the node's last crash
			down[ev.Node][len(down[ev.Node])-1].to = ev.Step
		}
	}
	if down == nil {
		return h
	}
	return downMask{inner: h, down: down}
}

// downMask is inner with α(t) stripped of the nodes that are down at t —
// strictly between a crash step and its recover step (the two event steps
// activate nobody anyway); β is inner's. Its windows are computed once
// from the scenario's events, so it is still a pure function of
// (text, t, i) and a checkpoint needs only the step index.
//
// inner is a named field on purpose: embedding Hashed would promote its
// ActiveSet and CountActive, and the engine would read the unmasked
// schedule through engine.Batched. Without them the engine asks through
// its pointwise adapter, i.e. through Active below.
//
// Forwarding FairPeriod keeps certification sound although a down node is
// silent for longer than a period: β's bound is untouched, so no read
// reaches further back than before; a down node cannot activate, so it
// cannot certify, and a fixed point needs every node certified; and crash
// and recover are event steps, which reopen the certification generation
// — so nothing is certified, ended or jumped inside a window.
type downMask struct {
	inner engine.Hashed
	down  [][]downWindow
}

// downWindow is a node's down time: the steps strictly between from and to.
type downWindow struct{ from, to int }

func (m downMask) Nodes() int   { return m.inner.Nodes() }
func (m downMask) Horizon() int { return m.inner.Horizon() }

func (m downMask) Active(t, i int) bool {
	for _, w := range m.down[i] {
		if w.from < t && t < w.to {
			return false
		}
	}
	return m.inner.Active(t, i)
}

func (m downMask) Beta(t, i, k int) int { return m.inner.Beta(t, i, k) }
func (m downMask) MaxLookback() int     { return m.inner.MaxLookback() }
func (m downMask) FairPeriod() int      { return m.inner.FairPeriod() }
