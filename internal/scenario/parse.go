package scenario

import (
	"fmt"
	"os"
	"strconv"
	"strings"
)

// Parse reads the scenario text format:
//
//	# the RFC 4264 wedgie, primary link flap
//	scenario wedgie-flap
//	gadget wedgie            # or: topo ring 8 rip
//	start stable 0           # gadgets: start from StableStates[k]
//	seed 7
//	horizon 120
//	act 0.6                  # schedule activation probability
//	stale 4                  # schedule staleness bound
//	loss 0.1                 # simulator / live-transport message loss
//	dup 0.05
//	at 30 linkdown 3 0
//	at 60 linkup 3 0
//	at 80 restart 2
//	at 85 crash 1            # node 1 goes down (must recover later)
//	at 95 recover 1          # ... and comes back
//	at 90 rank 3 1 2 3 0     # set rank 3 on path 1→2→3→0 (gadgets)
//	at 40 weight 2 1 2       # set weight 2 on link 1–2 (topologies)
//
// Lines are keyword-led, '#' starts a comment, blank lines are skipped.
// The result is validated before it is returned.
//
// Parse is a wire-input surface (the simulation service accepts scenario
// text from untrusted clients), so every size is capped up front: the
// input itself at MaxFileSize, the event count at its Validate bound as
// the events are read (not after), and rank paths at the node bound — a
// hostile input fails fast with a clean error instead of driving
// allocation.
func Parse(data []byte) (*Scenario, error) {
	if len(data) > MaxFileSize {
		return nil, fmt.Errorf("scenario: %d-byte input exceeds the %d-byte cap", len(data), MaxFileSize)
	}
	sc := &Scenario{Name: "unnamed", Horizon: 1}
	seenHorizon := false
	for lineNo, raw := range strings.Split(string(data), "\n") {
		line := raw
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = line[:i]
		}
		f := strings.Fields(line)
		if len(f) == 0 {
			continue
		}
		fail := func(format string, args ...any) (*Scenario, error) {
			return nil, fmt.Errorf("scenario: line %d: %s", lineNo+1, fmt.Sprintf(format, args...))
		}
		switch f[0] {
		case "scenario":
			if len(f) != 2 {
				return fail("usage: scenario <name>")
			}
			sc.Name = f[1]
		case "gadget":
			if len(f) != 2 {
				return fail("usage: gadget <name>")
			}
			sc.Spec.Gadget = f[1]
		case "topo":
			if len(f) != 4 {
				return fail("usage: topo <name> <n> <algebra>")
			}
			n, err := parseInt(f[2], 0, maxNodes)
			if err != nil {
				return fail("n: %v", err)
			}
			sc.Spec.Topo, sc.Spec.N, sc.Spec.Algebra = f[1], n, f[3]
		case "start":
			switch {
			case len(f) == 2 && f[1] == "clean":
				sc.StartStable = 0
			case len(f) == 3 && f[1] == "stable":
				k, err := parseInt(f[2], 0, 15)
				if err != nil {
					return fail("stable index: %v", err)
				}
				sc.StartStable = k + 1
			default:
				return fail("usage: start clean | start stable <k>")
			}
		case "seed":
			if len(f) != 2 {
				return fail("usage: seed <int>")
			}
			v, err := strconv.ParseInt(f[1], 10, 64)
			if err != nil {
				return fail("seed: %v", err)
			}
			sc.Seed = v
		case "horizon":
			if len(f) != 2 {
				return fail("usage: horizon <int>")
			}
			v, err := parseInt(f[1], 1, maxHorizon)
			if err != nil {
				return fail("horizon: %v", err)
			}
			sc.Horizon, seenHorizon = v, true
		case "act":
			v, err := parseProb(f, 1)
			if err != nil {
				return fail("act: %v", err)
			}
			sc.ActProb = v
		case "stale":
			if len(f) != 2 {
				return fail("usage: stale <int>")
			}
			v, err := parseInt(f[1], 0, maxHorizon)
			if err != nil {
				return fail("stale: %v", err)
			}
			sc.MaxStaleness = v
		case "loss":
			v, err := parseProb(f, MaxFaultProb)
			if err != nil {
				return fail("loss: %v", err)
			}
			sc.LossProb = v
		case "dup":
			v, err := parseProb(f, MaxFaultProb)
			if err != nil {
				return fail("dup: %v", err)
			}
			sc.DupProb = v
		case "at":
			if len(sc.Events) >= maxEvents {
				return fail("more than %d events", maxEvents)
			}
			ev, err := parseEvent(f)
			if err != nil {
				return fail("%v", err)
			}
			sc.Events = append(sc.Events, ev)
		default:
			return fail("unknown keyword %q", f[0])
		}
	}
	if !seenHorizon {
		return nil, fmt.Errorf("scenario: missing horizon")
	}
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	return sc, nil
}

// parseEvent parses one "at <step> <kind> ..." line.
func parseEvent(f []string) (Event, error) {
	if len(f) < 3 {
		return Event{}, fmt.Errorf("usage: at <step> <kind> ...")
	}
	step, err := parseInt(f[1], 1, maxHorizon)
	if err != nil {
		return Event{}, fmt.Errorf("step: %v", err)
	}
	ev := Event{Step: step}
	args := f[3:]
	ints := func(want int) ([]int, error) {
		if len(args) != want {
			return nil, fmt.Errorf("%s takes %d argument(s)", f[2], want)
		}
		out := make([]int, want)
		for i, a := range args {
			v, err := parseInt(a, 0, maxNodes-1)
			if err != nil {
				return nil, err
			}
			out[i] = v
		}
		return out, nil
	}
	switch f[2] {
	case "linkdown", "linkup":
		v, err := ints(2)
		if err != nil {
			return Event{}, err
		}
		if f[2] == "linkup" {
			ev.Kind = LinkUp
		} else {
			ev.Kind = LinkDown
		}
		ev.A, ev.B = v[0], v[1]
	case "restart":
		v, err := ints(1)
		if err != nil {
			return Event{}, err
		}
		ev.Kind, ev.Node = Restart, v[0]
	case "crash":
		v, err := ints(1)
		if err != nil {
			return Event{}, err
		}
		ev.Kind, ev.Node = NodeCrash, v[0]
	case "recover":
		v, err := ints(1)
		if err != nil {
			return Event{}, err
		}
		ev.Kind, ev.Node = NodeRecover, v[0]
	case "rank":
		if len(args) < 3 {
			return Event{}, fmt.Errorf("usage: at <step> rank <rank> <node...>")
		}
		if len(args)-1 > maxNodes {
			return Event{}, fmt.Errorf("rank path of %d nodes exceeds %d", len(args)-1, maxNodes)
		}
		r, err := parseInt(args[0], 1, maxRank)
		if err != nil {
			return Event{}, fmt.Errorf("rank: %v", err)
		}
		ev.Kind, ev.Rank = SetRank, uint32(r)
		for _, a := range args[1:] {
			v, err := parseInt(a, 0, maxNodes-1)
			if err != nil {
				return Event{}, fmt.Errorf("path: %v", err)
			}
			ev.Path = append(ev.Path, v)
		}
	case "weight":
		if len(args) != 3 {
			return Event{}, fmt.Errorf("usage: at <step> weight <w> <a> <b>")
		}
		w, err := parseInt(args[0], 0, maxWeight)
		if err != nil {
			return Event{}, fmt.Errorf("weight: %v", err)
		}
		a, err := parseInt(args[1], 0, maxNodes-1)
		if err != nil {
			return Event{}, err
		}
		b, err := parseInt(args[2], 0, maxNodes-1)
		if err != nil {
			return Event{}, err
		}
		ev.Kind, ev.Weight, ev.A, ev.B = SetWeight, int64(w), a, b
	default:
		return Event{}, fmt.Errorf("unknown event kind %q", f[2])
	}
	return ev, nil
}

// Encode renders the scenario in the Parse format; Parse(Encode(sc))
// reproduces a validated scenario exactly.
func (sc *Scenario) Encode() []byte {
	var b strings.Builder
	fmt.Fprintf(&b, "scenario %s\n", sc.Name)
	if sc.Spec.Gadget != "" {
		fmt.Fprintf(&b, "gadget %s\n", sc.Spec.Gadget)
	} else {
		fmt.Fprintf(&b, "topo %s %d %s\n", sc.Spec.Topo, sc.Spec.N, sc.Spec.Algebra)
	}
	if sc.StartStable > 0 {
		fmt.Fprintf(&b, "start stable %d\n", sc.StartStable-1)
	}
	fmt.Fprintf(&b, "seed %d\n", sc.Seed)
	fmt.Fprintf(&b, "horizon %d\n", sc.Horizon)
	if sc.ActProb != 0 {
		fmt.Fprintf(&b, "act %g\n", sc.ActProb)
	}
	if sc.MaxStaleness != 0 {
		fmt.Fprintf(&b, "stale %d\n", sc.MaxStaleness)
	}
	if sc.LossProb != 0 {
		fmt.Fprintf(&b, "loss %g\n", sc.LossProb)
	}
	if sc.DupProb != 0 {
		fmt.Fprintf(&b, "dup %g\n", sc.DupProb)
	}
	for _, ev := range sc.Events {
		switch ev.Kind {
		case LinkDown, LinkUp:
			fmt.Fprintf(&b, "at %d %s %d %d\n", ev.Step, ev.Kind, ev.A, ev.B)
		case Restart, NodeCrash, NodeRecover:
			fmt.Fprintf(&b, "at %d %s %d\n", ev.Step, ev.Kind, ev.Node)
		case SetRank:
			fmt.Fprintf(&b, "at %d rank %d", ev.Step, ev.Rank)
			for _, v := range ev.Path {
				fmt.Fprintf(&b, " %d", v)
			}
			b.WriteByte('\n')
		case SetWeight:
			fmt.Fprintf(&b, "at %d weight %d %d %d\n", ev.Step, ev.Weight, ev.A, ev.B)
		}
	}
	return []byte(b.String())
}

// MaxFileSize caps the scenario text Parse accepts. The format cannot
// need more: 64 events of ≤ 80 bytes plus a handful of header lines fit
// in a few KiB, so anything larger is hostile or corrupt.
const MaxFileSize = 1 << 16

// Load reads and parses a scenario file, refusing oversized files
// before reading them.
func Load(path string) (*Scenario, error) {
	if fi, err := os.Stat(path); err == nil && fi.Size() > MaxFileSize {
		return nil, fmt.Errorf("scenario: %s is %d bytes, over the %d-byte cap", path, fi.Size(), MaxFileSize)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return Parse(data)
}

func parseInt(s string, lo, hi int) (int, error) {
	v, err := strconv.Atoi(s)
	if err != nil {
		return 0, err
	}
	if v < lo || v > hi {
		return 0, fmt.Errorf("%d outside [%d, %d]", v, lo, hi)
	}
	return v, nil
}

func parseProb(f []string, hi float64) (float64, error) {
	if len(f) != 2 {
		return 0, fmt.Errorf("takes one argument")
	}
	v, err := strconv.ParseFloat(f[1], 64)
	if err != nil {
		return 0, err
	}
	if v < 0 || v > hi {
		return 0, fmt.Errorf("%g outside [0, %g]", v, hi)
	}
	return v, nil
}
