package scenario

import (
	"context"
	"fmt"
	"slices"
	"strings"
	"time"

	"repro/internal/async"
	"repro/internal/dist"
	"repro/internal/matrix"
	"repro/internal/simulate"
	"repro/internal/transport"
)

// Substrate names accepted by Run.
const (
	SubEngine = "engine"
	SubSim    = "sim"
	SubDist   = "dist"
)

// simTick is the simulator's virtual time per engine step: 8 mean
// activation periods, so a node typically activates several times
// between consecutive steps of the abstract timeline.
const simTick = 40

// distStep is the live network's wall-clock time per engine step.
const distStep = 3 * time.Millisecond

// SubstrateReport is one substrate's outcome for a scenario.
type SubstrateReport struct {
	Substrate string
	// Converged is the substrate's own claim: certified early stop for
	// the engine, quiescence before the deadline for the simulator and
	// the live network.
	Converged bool
	// Stable reports whether the final state is a σ fixed point of the
	// post-event topology.
	Stable bool
	// ReferenceOK (engine only) reports that every event-boundary state
	// and the state at the horizon were bit-identical to the literal
	// evaluator, async.RunTimelineReference, playing the same timeline
	// under the same schedule.
	ReferenceOK bool
	// Steps, ConvergedAt (−1: not certified), Cells and Hash (engine only)
	// are the run's digest — what dbfsimd returns for the same text.
	Steps, ConvergedAt, Cells int
	Hash                      uint64
	// Certified (Wedged verdicts only) reports that the bisimulation
	// certifier confirmed the wedge against an independently rebuilt
	// post-event instance.
	Certified bool
	// Class is the watchdog's verdict on the final state.
	Class Classification
	// FinalTable is the formatted routing table (instances of ≤ 12 nodes).
	FinalTable string
}

// Report collects per-substrate outcomes for one scenario.
type Report struct {
	Scenario   *Scenario
	Substrates []SubstrateReport
}

// String renders a human-readable report.
func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "scenario %s: %d event(s), horizon %d\n", r.Scenario.Name, len(r.Scenario.Events), r.Scenario.Horizon)
	for _, s := range r.Substrates {
		fmt.Fprintf(&b, "  %-6s verdict=%s converged=%v stable=%v", s.Substrate, s.Class.Verdict, s.Converged, s.Stable)
		if s.Substrate == SubEngine {
			fmt.Fprintf(&b, " reference=%v", s.ReferenceOK)
		}
		if s.Class.Verdict == VerdictWedged {
			fmt.Fprintf(&b, " certified=%v", s.Certified)
		}
		fmt.Fprintf(&b, " (%s)\n", s.Class.Detail)
		if s.Substrate == SubEngine {
			fmt.Fprintf(&b, "         %s\n", DigestLine(s.Steps, s.ConvergedAt, s.Cells, s.Hash))
		}
	}
	return b.String()
}

// DigestLine renders an engine run's digest: dbfsim -scenario and dbfsim
// -server both print it, so the two doors' lines can be diffed.
func DigestLine(steps, convergedAt, cells int, hash uint64) string {
	return fmt.Sprintf("steps=%d convergedAt=%d cells=%d hash=%016x", steps, convergedAt, cells, hash)
}

// Run validates the scenario and plays its timeline on the named
// substrates ("engine", "sim", "dist"); with none named, only the
// engine runs. Every substrate gets a freshly built instance, so policy
// edits on one can never leak into another.
func Run(sc *Scenario, substrates ...string) (*Report, error) {
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	if len(substrates) == 0 {
		substrates = []string{SubEngine}
	}
	for _, s := range substrates {
		switch s {
		case SubEngine, SubSim, SubDist:
		default:
			return nil, fmt.Errorf("scenario: unknown substrate %q", s)
		}
	}
	if sc.Spec.Gadget != "" {
		return runFamily(sc, substrates, buildGadget)
	}
	return runFamily(sc, substrates, buildTopo)
}

func runFamily[R any](sc *Scenario, subs []string, build func(*Scenario) (*instance[R], error)) (*Report, error) {
	rep := &Report{Scenario: sc}
	for _, s := range subs {
		var sr SubstrateReport
		var err error
		switch s {
		case SubEngine:
			sr, err = runEngine(sc, build)
		case SubSim:
			sr, err = runSimulate(sc, build)
		case SubDist:
			sr, err = runDist(sc, build)
		}
		if err != nil {
			return nil, err
		}
		rep.Substrates = append(rep.Substrates, sr)
	}
	return rep, nil
}

// replayReference plays the timeline on a freshly built instance with the
// literal Section 3.1 evaluator under the scenario's schedule. Returns
// the state at each event step and the state at the horizon — the exact
// oracle for the engine's state at each event step (Stepper.State) and
// its Final(), a run that stopped early included: a certified fixed point
// is the state at the horizon.
func replayReference[R any](sc *Scenario, in *instance[R]) (bounds []*matrix.State[R], final *matrix.State[R]) {
	hist := async.RunTimelineReference(in.alg, in.adj, in.startState(), source(sc, in.n), in.timeline(sc.Events))
	for _, ev := range sc.Events {
		bounds = append(bounds, hist[ev.Step])
	}
	return bounds, hist[len(hist)-1]
}

// finish classifies a finished run: the caller guarantees inst.adj holds
// the post-event topology. It fills the verdict, σ-stability, the
// formatted table, and — for wedges — the bisimulation certificate.
func finish[R any](sc *Scenario, build func(*Scenario) (*instance[R], error),
	inst *instance[R], final *matrix.State[R], sr *SubstrateReport) error {
	wd := Watchdog[R]{Alg: inst.alg, Adj: inst.adj, Measure: inst.measure}
	if sc.StartStable > 0 {
		wd.Intended = inst.startState()
	}
	sr.Class = wd.Classify(final)
	sr.Stable = matrix.IsStable(inst.alg, inst.adj, final)
	if inst.n <= 12 {
		sr.FinalTable = final.Format(inst.alg)
	}
	if sr.Class.Verdict == VerdictWedged {
		rebuilt, err := build(sc)
		if err != nil {
			return err
		}
		rebuilt.applyAll(sc.Events)
		// The orbit's fixed point is the state the Wedged verdict is about;
		// the bound is the watchdog's default.
		fp, _, ok := matrix.FixedPoint(inst.alg, inst.adj, final, 4*inst.n+64)
		if ok {
			_, sr.Certified = certifyWedged(inst, rebuilt, fp, inst.startState(), sc.Seed)
		}
	}
	return nil
}

// runEngine plays the timeline on the stepped δ engine — the service's
// core, advanced to the horizon or to the fixed point it certifies first —
// and differential-checks every event boundary and the final state
// against the literal reference evaluator.
func runEngine[R any](sc *Scenario, build func(*Scenario) (*instance[R], error)) (SubstrateReport, error) {
	sr := SubstrateReport{Substrate: SubEngine}
	inst, err := build(sc)
	if err != nil {
		return sr, err
	}
	c, err := newCore(sc, inst)
	if err != nil {
		return sr, err
	}
	defer c.close()
	// The run keeps no state behind it: pause at each event step to read
	// the post-event state the reference holds there. Pausing changes
	// nothing the run computes.
	marks := make([]*matrix.State[R], 0, len(sc.Events)+1)
	for _, ev := range sc.Events {
		c.advance(ev.Step)
		marks = append(marks, c.st.State())
	}
	c.advance(sc.Horizon)
	res := c.res
	st := res.Progress()
	sr.Steps, sr.ConvergedAt, sr.Cells, sr.Hash = st.Steps, st.ConvergedAt, st.CellsComputed, c.finalHash()
	sr.Converged = st.ConvergedAt >= 0

	ref, err := build(sc)
	if err != nil {
		return sr, err
	}
	bounds, refFinal := replayReference(sc, ref)
	sr.ReferenceOK = slices.EqualFunc(append(marks, res.Final()), append(bounds, refFinal),
		func(a, b *matrix.State[R]) bool { return a.Equal(inst.alg, b) })
	err = finish(sc, build, inst, res.Final(), &sr)
	return sr, err
}

// runSimulate plays the timeline on the event-driven simulator, mapping
// step s to virtual time s·simTick.
func runSimulate[R any](sc *Scenario, build func(*Scenario) (*instance[R], error)) (SubstrateReport, error) {
	sr := SubstrateReport{Substrate: SubSim}
	inst, err := build(sc)
	if err != nil {
		return sr, err
	}
	cfg := simulate.Config{
		Seed:     sc.Seed,
		LossProb: sc.LossProb,
		DupProb:  sc.DupProb,
		MaxTime:  int64(sc.Horizon)*simTick + 60_000,
	}
	events := make([]simulate.Event[R], len(sc.Events))
	for k, ev := range sc.Events {
		events[k] = simulate.Event[R]{
			Time:  int64(ev.Step) * simTick,
			Apply: func(sim *simulate.Sim[R]) { applyLive(inst, sim, ev) },
		}
	}
	out := simulate.Run(inst.alg, inst.adj, inst.startState(), cfg, nil, events...)
	sr.Converged = out.Converged
	// The simulator mutated its private clone; bring the instance's
	// adjacency to the post-event topology for classification (every
	// event kind is idempotent, so replaying rank edits is harmless).
	inst.applyAll(sc.Events)
	err = finish(sc, build, inst, out.Final, &sr)
	return sr, err
}

// runDist plays the timeline against the live goroutine-per-router
// network, mapping step s to wall-clock time s·distStep: every event is
// scheduled through ApplyAfter onto the network's verbs.
// Quiescence is withheld until every scheduled fault has fired.
func runDist[R any](sc *Scenario, build func(*Scenario) (*instance[R], error)) (SubstrateReport, error) {
	sr := SubstrateReport{Substrate: SubDist}
	inst, err := build(sc)
	if err != nil {
		return sr, err
	}
	tr := transport.NewMemory(inst.n, sc.Seed, transport.Faults{LossProb: sc.LossProb, DupProb: sc.DupProb})
	nw := dist.NewNetwork(inst.alg, inst.adj, inst.startState(), inst.codec, tr, dist.Config{Seed: sc.Seed})
	for _, ev := range sc.Events {
		ev := ev
		nw.ApplyAfter(time.Duration(ev.Step)*distStep, func(nw *dist.Network[R]) {
			applyLive(inst, nw, ev)
		})
	}
	out := nw.Run(context.Background())
	sr.Converged = out.Converged
	inst.applyAll(sc.Events)
	err = finish(sc, build, inst, out.Final, &sr)
	return sr, err
}

// live is what the two message-passing substrates offer a running
// timeline: *simulate.Sim and *dist.Network both satisfy it, so one
// function plays every scenario event on both.
type live[R any] interface {
	Mutate(func(adj *matrix.Adjacency[R]))
	RestartNode(i int)
	CrashNode(i int)
	RecoverNode(i int)
}

// applyLive plays one event against a running simulation or network:
// node events through its verbs, everything else as the same adjacency
// edit instance.apply makes.
func applyLive[R any](in *instance[R], sub live[R], ev Event) {
	switch ev.Kind {
	case Restart:
		sub.RestartNode(ev.Node)
	case NodeCrash:
		sub.CrashNode(ev.Node)
	case NodeRecover:
		sub.RecoverNode(ev.Node)
	default:
		sub.Mutate(func(adj *matrix.Adjacency[R]) { in.apply(ev, adj) })
	}
}
