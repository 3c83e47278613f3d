// Package scenario is the dynamic-event fault-injection layer: a
// scenario is a named network instance (an SPP gadget or a weighted
// topology), an initial state, and a timeline of scheduled faults —
// link failures and recoveries, live policy and weight edits, node
// restarts — played mid-run against any of the three evaluation
// substrates (the stepped δ engine, the event-driven simulator, the
// live goroutine-per-router network). Per Section 3.2 of the paper each
// event turns the continuing computation into a new problem instance
// whose starting state is whatever the network held at that moment;
// the scenario layer makes that instant observable, differential-checks
// the stepped engine against the literal reference evaluator at every
// event and at the horizon, and classifies how the run ends (converged,
// wedged, oscillating, counting to infinity) with the watchdogs in this
// package.
package scenario

import (
	"fmt"
)

// EventKind enumerates the fault kinds a timeline can schedule.
type EventKind uint8

const (
	// LinkDown removes both directions of a link.
	LinkDown EventKind = iota
	// LinkUp restores a previously failed link to its pristine edge
	// functions (whichever directions the pristine topology had).
	LinkUp
	// Restart wipes one node: its table resets to the identity row and
	// its neighbour caches are lost.
	Restart
	// SetRank re-ranks a permitted path at its source node — a live
	// policy edit (gadget family only).
	SetRank
	// SetWeight installs a new weight on both directions of a link — a
	// live metric edit (topo family only).
	SetWeight
	// NodeCrash takes a node down: it stops activating and advertising
	// until the matching NodeRecover, and whatever is delivered to it
	// meanwhile is lost. Every crash must be paired with a later recover
	// in the same timeline.
	NodeCrash
	// NodeRecover brings a crashed node back. It reboots wiped — the
	// crash lost whatever it knew — with restart semantics on every
	// substrate.
	NodeRecover
)

// String renders the kind as its scenario-file keyword.
func (k EventKind) String() string {
	switch k {
	case LinkDown:
		return "linkdown"
	case LinkUp:
		return "linkup"
	case Restart:
		return "restart"
	case SetRank:
		return "rank"
	case SetWeight:
		return "weight"
	case NodeCrash:
		return "crash"
	case NodeRecover:
		return "recover"
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Event is one scheduled fault. Step is the engine step it fires at;
// the other substrates map steps onto their own clocks (the simulator
// multiplies by a fixed virtual-time tick, the live network by a fixed
// wall-clock interval), so one timeline drives all three.
type Event struct {
	Step int
	Kind EventKind
	// A, B are the link endpoints (LinkDown, LinkUp, SetWeight).
	A, B int
	// Node is the affected node (Restart, NodeCrash, NodeRecover).
	Node int
	// Rank and Path identify a policy edit (SetRank): the permitted path
	// as a node sequence and its new rank.
	Rank uint32
	Path []int
	// Weight is the new link weight (SetWeight).
	Weight int64
}

// Spec names the network instance a scenario runs on. Exactly one of
// Gadget and Topo is set.
type Spec struct {
	// Gadget selects an SPP instance: disagree, badgadget, goodgadget or
	// wedgie (destination 0 throughout).
	Gadget string
	// Topo selects a graph family: line, ring, star, clique or random,
	// over N nodes, under the named distance algebra.
	Topo string
	N    int
	// Algebra is the topo family's algebra: "shortest" (unbounded
	// distance vector — the count-to-infinity carrier) or "rip" (hop
	// count limited to 15, the finite strictly-increasing algebra of
	// Theorem 7, which must converge under any timeline).
	Algebra string
}

// Scenario is a complete runnable description: instance, seed, horizon,
// schedule shape, message-fault profile and the event timeline.
type Scenario struct {
	Name string
	Spec Spec
	// Seed drives every random choice: the δ schedule, the simulator and
	// the live transport. Equal seeds replay identical runs per substrate.
	Seed int64
	// Horizon is the engine step budget; events fire at steps in
	// [1, Horizon].
	Horizon int
	// StartStable, when k ≥ 1, starts from gadgets.StableStates(spp)[k-1]
	// — an engineered ("intended") operating point — instead of the clean
	// identity state (the zero value). The watchdog then reports Wedged
	// if the run settles on a different stable state. Gadget family only.
	StartStable int
	// ActProb and MaxStaleness shape the engine's random schedule
	// (defaults 0.6 and 4).
	ActProb      float64
	MaxStaleness int
	// LossProb and DupProb are message-fault knobs for the simulator and
	// live substrates (the δ engine's schedule models faults through
	// β-staleness instead), each in [0, MaxFaultProb].
	LossProb, DupProb float64
	Events            []Event
}

// MaxFaultProb is the largest loss or duplication probability a scenario
// may ask for: a run that loses almost every message would only time out.
const MaxFaultProb = 0.9

const (
	maxHorizon = 4096
	maxEvents  = 64
	maxNodes   = 64
	maxWeight  = 1_000_000
	maxRank    = 1 << 20
	maxName    = 64
)

func validName(s string) bool {
	if len(s) == 0 || len(s) > maxName {
		return false
	}
	for _, c := range s {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9', c == '-', c == '_':
		default:
			return false
		}
	}
	return true
}

// gadgetNodes returns the node count of a gadget instance, or 0 for an
// unknown name.
func gadgetNodes(name string) int {
	switch name {
	case "disagree":
		return 3
	case "badgadget", "goodgadget", "wedgie":
		return 4
	}
	return 0
}

// Nodes returns the instance's node count (0 when the spec is invalid).
func (sc *Scenario) Nodes() int {
	if sc.Spec.Gadget != "" {
		return gadgetNodes(sc.Spec.Gadget)
	}
	return sc.Spec.N
}

// Validate checks the scenario is well-formed: a name of 1-64
// characters of [a-zA-Z0-9_-], a known instance, sane bounds,
// and a strictly increasing timeline whose events fit the family (rank
// edits only on gadgets, weight edits only on topologies) and name
// in-range nodes. Build-time facts — whether a path is actually
// permitted, whether a restored link exists in the pristine topology —
// are checked when the instance is built, not here.
//
// These bounds also bound the scenario's encoding: the largest scenario
// Validate accepts encodes well under MaxServiceableBytes, so the
// service never re-encodes a text to measure it.
func (sc *Scenario) Validate() error {
	if !validName(sc.Name) {
		return fmt.Errorf("scenario: name must be 1-%d chars of [a-zA-Z0-9_-]", maxName)
	}
	if (sc.Spec.Gadget == "") == (sc.Spec.Topo == "") {
		return fmt.Errorf("scenario: exactly one of gadget and topo must be set")
	}
	if sc.Spec.Gadget != "" {
		if gadgetNodes(sc.Spec.Gadget) == 0 {
			return fmt.Errorf("scenario: unknown gadget %q", sc.Spec.Gadget)
		}
		if sc.Spec.N != 0 || sc.Spec.Algebra != "" {
			return fmt.Errorf("scenario: gadget family fixes n and algebra")
		}
	} else {
		switch sc.Spec.Topo {
		case "line", "ring", "star", "clique", "random":
		default:
			return fmt.Errorf("scenario: unknown topology %q", sc.Spec.Topo)
		}
		if sc.Spec.N < 2 || sc.Spec.N > maxNodes {
			return fmt.Errorf("scenario: n=%d outside [2, %d]", sc.Spec.N, maxNodes)
		}
		switch sc.Spec.Algebra {
		case "shortest", "rip":
		default:
			return fmt.Errorf("scenario: unknown algebra %q", sc.Spec.Algebra)
		}
		if sc.StartStable != 0 {
			return fmt.Errorf("scenario: start stable is gadget-only")
		}
	}
	if sc.StartStable < 0 || sc.StartStable > 16 {
		return fmt.Errorf("scenario: start stable %d out of range", sc.StartStable-1)
	}
	n := sc.Nodes()
	if sc.Horizon < 1 || sc.Horizon > maxHorizon {
		return fmt.Errorf("scenario: horizon=%d outside [1, %d]", sc.Horizon, maxHorizon)
	}
	if !(sc.ActProb >= 0 && sc.ActProb <= 1) { // NaN included
		return fmt.Errorf("scenario: act=%g outside [0, 1]", sc.ActProb)
	}
	if sc.MaxStaleness < 0 || sc.MaxStaleness > maxHorizon {
		return fmt.Errorf("scenario: stale=%d out of range", sc.MaxStaleness)
	}
	if !(sc.LossProb >= 0 && sc.LossProb <= MaxFaultProb && sc.DupProb >= 0 && sc.DupProb <= MaxFaultProb) {
		return fmt.Errorf("scenario: loss/dup outside [0, %g]", MaxFaultProb)
	}
	if len(sc.Events) > maxEvents {
		return fmt.Errorf("scenario: %d events exceeds %d", len(sc.Events), maxEvents)
	}
	prev := 0
	// downAt tracks crash/recover pairing: no double-crash, no recover of
	// a node that is up, and — checked after the loop — no crash left
	// unrecovered at the horizon. (A node meant to stay dead is a
	// permanent partition, which is a topology, not a timeline: model it
	// with linkdown.)
	downAt := make(map[int]bool)
	for idx, ev := range sc.Events {
		if ev.Step <= prev || ev.Step > sc.Horizon {
			return fmt.Errorf("scenario: event %d at step %d (steps must strictly increase within [1, horizon])", idx, ev.Step)
		}
		prev = ev.Step
		inRange := func(v int) bool { return v >= 0 && v < n }
		switch ev.Kind {
		case LinkDown, LinkUp:
			if !inRange(ev.A) || !inRange(ev.B) || ev.A == ev.B {
				return fmt.Errorf("scenario: event %d: bad link %d–%d", idx, ev.A, ev.B)
			}
		case Restart:
			if !inRange(ev.Node) {
				return fmt.Errorf("scenario: event %d: bad node %d", idx, ev.Node)
			}
			if downAt[ev.Node] {
				return fmt.Errorf("scenario: event %d: restart of crashed node %d (recover it first)", idx, ev.Node)
			}
		case NodeCrash:
			if !inRange(ev.Node) {
				return fmt.Errorf("scenario: event %d: bad node %d", idx, ev.Node)
			}
			if downAt[ev.Node] {
				return fmt.Errorf("scenario: event %d: node %d is already down", idx, ev.Node)
			}
			downAt[ev.Node] = true
		case NodeRecover:
			if !inRange(ev.Node) {
				return fmt.Errorf("scenario: event %d: bad node %d", idx, ev.Node)
			}
			if !downAt[ev.Node] {
				return fmt.Errorf("scenario: event %d: recover of node %d, which is not down", idx, ev.Node)
			}
			downAt[ev.Node] = false
		case SetRank:
			if sc.Spec.Gadget == "" {
				return fmt.Errorf("scenario: event %d: rank edits are gadget-only", idx)
			}
			if ev.Rank < 1 || ev.Rank > maxRank {
				return fmt.Errorf("scenario: event %d: bad rank %d", idx, ev.Rank)
			}
			if len(ev.Path) < 2 || len(ev.Path) > n {
				return fmt.Errorf("scenario: event %d: bad path length %d", idx, len(ev.Path))
			}
			for _, v := range ev.Path {
				if !inRange(v) {
					return fmt.Errorf("scenario: event %d: path node %d out of range", idx, v)
				}
			}
		case SetWeight:
			if sc.Spec.Topo == "" {
				return fmt.Errorf("scenario: event %d: weight edits are topo-only", idx)
			}
			if !inRange(ev.A) || !inRange(ev.B) || ev.A == ev.B {
				return fmt.Errorf("scenario: event %d: bad link %d–%d", idx, ev.A, ev.B)
			}
			if ev.Weight < 0 || ev.Weight > maxWeight {
				return fmt.Errorf("scenario: event %d: weight %d out of range", idx, ev.Weight)
			}
		default:
			return fmt.Errorf("scenario: event %d: unknown kind %d", idx, ev.Kind)
		}
	}
	for node, d := range downAt {
		if d {
			return fmt.Errorf("scenario: node %d crashes but never recovers before the horizon", node)
		}
	}
	return nil
}
