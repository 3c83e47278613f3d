package scenario

import (
	"fmt"

	"repro/internal/algebras"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/gadgets"
	"repro/internal/matrix"
	"repro/internal/paths"
	"repro/internal/topology"
	"repro/internal/wire"
)

// instance is a scenario compiled for one run on one substrate: the
// algebra, a working adjacency the events mutate, the pristine edges of
// the links the events name (what link recoveries restore), and the
// hooks the generic runners need (wire codec for the live substrate, a
// finite measure for count-to-infinity detection, a route sample for
// bisimulation checks).
//
// Every run builds its own instance: rank edits mutate the instance's
// private SPP clone, so an engine run and its differential reference
// replay must never share one.
type instance[R any] struct {
	n     int
	alg   core.Algebra[R]
	adj   *matrix.Adjacency[R]
	prist []pristEdge[R]
	// start is the start state; nil is I, which the engine builds itself
	// (startState builds it for the substrates that read a dense one).
	start *matrix.State[R]
	codec wire.Codec[R]
	// family tags the instance's checkpoints; it names the codec.
	family string
	// spp is the gadget family's private policy state (nil for topo).
	spp *gadgets.SPP
	// weightEdge builds a weighted edge (nil for gadgets).
	weightEdge func(w int64) core.Edge[R]
	// measure maps a route to a finite size, reporting false on the
	// invalid route; monotone growth of the total measure is the
	// watchdog's count-to-infinity signature. Nil when the algebra's
	// carrier is finite.
	measure func(R) (int64, bool)
	// mustConverge marks a finite strictly-increasing algebra (rip):
	// Theorem 7 guarantees convergence under ANY timeline, which the
	// fuzzer uses as a hard invariant.
	mustConverge bool
	// sample is a route sample for the bisimulation certifier.
	sample []R
}

// pristEdge is one directed edge of a link an event names, as the
// topology had it at build.
type pristEdge[R any] struct {
	a, b int
	e    core.Edge[R]
}

// keepPristine captures, before any event plays, the edges of every link
// the events take down or bring up, in both directions.
func (in *instance[R]) keepPristine(events []Event) {
	for _, ev := range events {
		if ev.Kind != LinkDown && ev.Kind != LinkUp {
			continue
		}
		for _, d := range [2][2]int{{ev.A, ev.B}, {ev.B, ev.A}} {
			e, ok := in.adj.Edge(d[0], d[1])
			if _, seen := in.pristine(d[0], d[1]); ok && !seen {
				in.prist = append(in.prist, pristEdge[R]{d[0], d[1], e})
			}
		}
	}
}

// pristine returns the edge from a to b as the topology had it at build;
// only the links the events name are kept.
func (in *instance[R]) pristine(a, b int) (core.Edge[R], bool) {
	for _, p := range in.prist {
		if p.a == a && p.b == b {
			return p.e, true
		}
	}
	return nil, false
}

// startState is the start state as a dense matrix: what the reference
// evaluator, the simulator, the live network and the watchdog read.
func (in *instance[R]) startState() *matrix.State[R] {
	if in.start != nil {
		return in.start
	}
	return matrix.Identity(in.alg, in.n)
}

// buildGadget compiles a gadget-family scenario.
func buildGadget(sc *Scenario) (*instance[gadgets.Route], error) {
	var base *gadgets.SPP
	switch sc.Spec.Gadget {
	case "disagree":
		base = gadgets.Disagree()
	case "badgadget":
		base = gadgets.BadGadget()
	case "goodgadget":
		base = gadgets.GoodGadget()
	case "wedgie":
		base = gadgets.Wedgie()
	default:
		return nil, fmt.Errorf("scenario: unknown gadget %q", sc.Spec.Gadget)
	}
	spp := base.Clone()
	alg := gadgets.Algebra{S: spp}
	adj := alg.Adjacency()
	in := &instance[gadgets.Route]{
		n:      spp.N,
		alg:    alg,
		adj:    adj,
		codec:  wire.SPPCodec{},
		family: familySPP,
		spp:    spp,
		sample: alg.SampleRoutes(),
	}
	if sc.StartStable > 0 {
		states := gadgets.StableStates(spp)
		k := sc.StartStable - 1
		if k >= len(states) {
			return nil, fmt.Errorf("scenario: start stable %d but %s has only %d stable state(s)",
				k, sc.Spec.Gadget, len(states))
		}
		in.start = states[k].Clone()
	} else {
		in.start = gadgets.InitialState(spp)
	}
	if err := in.check(sc); err != nil {
		return nil, err
	}
	return in, nil
}

// buildTopo compiles a topo-family scenario.
func buildTopo(sc *Scenario) (*instance[algebras.NatInf], error) {
	n := sc.Spec.N
	g, err := topology.Named(sc.Spec.Topo, n, sc.Seed)
	if err != nil {
		return nil, fmt.Errorf("scenario: %w", err)
	}
	in := &instance[algebras.NatInf]{
		n:      n,
		codec:  wire.NatInfCodec{},
		family: familyNatInf,
		sample: []algebras.NatInf{0, 1, 2, 7, algebras.Inf},
	}
	switch sc.Spec.Algebra {
	case "shortest":
		alg := algebras.ShortestPaths{}
		in.alg = alg
		in.weightEdge = func(w int64) core.Edge[algebras.NatInf] { return alg.AddEdge(algebras.NatInf(w)) }
		// The unbounded carrier is where count-to-infinity lives; the
		// watchdog watches the total finite distance for monotone growth.
		in.measure = func(v algebras.NatInf) (int64, bool) {
			if v.IsInf() {
				return 0, false
			}
			return int64(v), true
		}
		in.adj = topology.BuildUniform[algebras.NatInf](g, alg.AddEdge(1))
	case "rip":
		alg := algebras.RIP()
		in.alg = alg
		in.weightEdge = func(w int64) core.Edge[algebras.NatInf] { return alg.AddEdge(algebras.NatInf(w)) }
		in.mustConverge = true
		in.adj = topology.BuildUniform[algebras.NatInf](g, alg.AddEdge(1))
	default:
		return nil, fmt.Errorf("scenario: unknown algebra %q", sc.Spec.Algebra)
	}
	if err := in.check(sc); err != nil {
		return nil, err
	}
	return in, nil
}

// check captures the pristine edges of the links the events name and
// verifies the build-time event facts Validate cannot see: rank edits
// must name a permitted path, link recoveries must name a link the
// pristine topology actually has.
func (in *instance[R]) check(sc *Scenario) error {
	in.keepPristine(sc.Events)
	for idx, ev := range sc.Events {
		switch ev.Kind {
		case SetRank:
			if _, ok := in.spp.Rank(ev.Path[0], paths.FromNodes(ev.Path...)); !ok {
				return fmt.Errorf("scenario: event %d: path %v not permitted", idx, ev.Path)
			}
		case LinkUp:
			_, fwd := in.pristine(ev.A, ev.B)
			_, rev := in.pristine(ev.B, ev.A)
			if !fwd && !rev {
				return fmt.Errorf("scenario: event %d: link %d–%d not in the pristine topology", idx, ev.A, ev.B)
			}
		case LinkDown:
			_, fwd := in.pristine(ev.A, ev.B)
			_, rev := in.pristine(ev.B, ev.A)
			if !fwd && !rev {
				return fmt.Errorf("scenario: event %d: link %d–%d not in the topology", idx, ev.A, ev.B)
			}
		}
	}
	return nil
}

// apply plays one event against an adjacency (the instance's own, or a
// running simulator's or live network's through applyLive). Links
// are treated as undirected: both directions fail together, and a
// recovery restores whichever directions the pristine topology had.
// Rank edits mutate the instance's SPP in place and bump the adjacency
// generation so compiled kernels are rebuilt.
func (in *instance[R]) apply(ev Event, adj *matrix.Adjacency[R]) {
	switch ev.Kind {
	case LinkDown:
		adj.RemoveEdge(ev.A, ev.B)
		adj.RemoveEdge(ev.B, ev.A)
	case LinkUp:
		if e, ok := in.pristine(ev.A, ev.B); ok {
			adj.SetEdge(ev.A, ev.B, e)
		}
		if e, ok := in.pristine(ev.B, ev.A); ok {
			adj.SetEdge(ev.B, ev.A, e)
		}
	case SetWeight:
		adj.SetEdge(ev.A, ev.B, in.weightEdge(ev.Weight))
		adj.SetEdge(ev.B, ev.A, in.weightEdge(ev.Weight))
	case SetRank:
		in.spp.SetRank(ev.Rank, ev.Path...)
		adj.Touch()
	case NodeCrash, NodeRecover:
		// Crash and recover change no topology; each substrate plays them
		// through its own liveness machinery (schedule masking, simulator
		// down set, live CrashNode/RecoverNode).
	}
}

// applyAll brings the instance's own adjacency to the post-event
// topology (restarts, crashes and recovers edit none).
func (in *instance[R]) applyAll(events []Event) {
	for _, ev := range events {
		in.apply(ev, in.adj)
	}
}

// affectedRows lists the state rows whose in-edge functions an event
// touches — the incremental engine invalidates exactly these. Row i's
// update σ(X)_i reads i's out-edges A_ik, so a link event touches both
// endpoints and a rank edit touches the path's source node (whose
// ranking table the edge functions consult).
func (in *instance[R]) affectedRows(ev Event) []int {
	switch ev.Kind {
	case SetRank:
		return []int{ev.Path[0]}
	default:
		return []int{ev.A, ev.B}
	}
}

// timeline compiles the scenario events for the engine and for the
// reference evaluator. A crash is a pure marker — the scenario's source
// masks the node's activations for the window, so on the engine the
// event only abandons the row's incremental bookkeeping (the dying
// process takes it along). A recover is a restart: the node reboots
// wiped and its first activation rebuilds the row in full.
func (in *instance[R]) timeline(events []Event) []engine.TimelineEvent[R] {
	out := make([]engine.TimelineEvent[R], 0, len(events))
	for _, ev := range events {
		te := engine.TimelineEvent[R]{Step: ev.Step}
		switch ev.Kind {
		case Restart, NodeRecover:
			te.Restart = []int{ev.Node}
		case NodeCrash:
			te.Invalidate = []int{ev.Node}
		default:
			ev := ev
			te.Mutate = func(adj *matrix.Adjacency[R]) { in.apply(ev, adj) }
			te.Invalidate = in.affectedRows(ev)
		}
		out = append(out, te)
	}
	return out
}
