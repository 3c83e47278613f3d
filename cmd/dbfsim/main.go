// Command dbfsim runs one asynchronous Distributed Bellman-Ford
// simulation and prints the routing tables and convergence statistics.
//
// Usage:
//
//	dbfsim -algebra rip -topo ring -n 6 -seed 1 -loss 0.2 -dup 0.1
//	dbfsim -algebra policy -policy 'addc(3); if (comm(3)) { lp+=2 }'
//	dbfsim -algebra gr -topo fattree -n 4 -mode delta -steps 2000
//	dbfsim -scenario examples/scenarios/wedgie-flap.scenario -substrate all
//
// Algebras: shortest, rip, widest, pv (path-tracked shortest), gr
// (Gao–Rexford tiers), policy (the Section 7 language; see -policy).
// Topologies: line, ring, grid, clique, star, random, fattree.
// Modes: sim (the event-driven message-passing simulator) and delta (the
// sharded, memory-bounded δ engine over a random (α, β) schedule).
// With -scenario, dbfsim instead plays a dynamic-event timeline (link
// failures, restarts, node crashes, live policy edits) from a scenario
// file on the substrates named by -substrate (engine, sim, dist, or all)
// and prints each substrate's watchdog verdict and, for the engine, the
// run's digest (steps, convergedAt, cells, hash) — the line -server
// prints for the same file, since the daemon runs the same schedule; the
// exit code is 0 only when every substrate converged. Each door (-mode
// sim, -mode delta, -scenario, -server) reads only its flags (flagDoors);
// any other flag draws a warning and is ignored — under -scenario, every
// flag that would set the file's instance, faults or horizon. In every
// mode -delay must be at least 1 and -loss and -dup in the range a
// scenario file may give (scenario.MaxFaultProb); anything else exits 2.
// A delta run is a pure function of its flags: its schedule is a pure
// function of (seed, t, i, k), so the same flags print the same output
// in any process.
// The path-aware algebras (pv, policy) run over hash-consed interned
// paths, and in delta mode algebras that pack canonically (shortest,
// rip, pv, policy) evaluate through the columnar struct-of-arrays
// kernels; every delta run is change-driven and stops at its certified
// fixed point.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"runtime"
	"runtime/pprof"

	"repro/internal/algebras"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/gaorexford"
	"repro/internal/matrix"
	"repro/internal/pathalg"
	"repro/internal/policy"
	"repro/internal/scenario"
	"repro/internal/simulate"
	"repro/internal/topology"
	"repro/internal/trace"
)

func main() { os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr)) }

// A door is one way an invocation runs; each reads only some flags.
type door uint8

const (
	doorSim door = 1 << iota // -mode sim, the default
	doorDelta
	doorScenario // -scenario without -server
	doorServer
	doorStatic = doorSim | doorDelta // the doors that build their own instance
)

var doorNames = map[door]string{doorSim: "-mode sim", doorDelta: "-mode delta", doorScenario: "a local -scenario", doorServer: "-server"}

// flagDoors names the doors that read each flag; any other door warns
// once of it on stderr and ignores it. -cpuprofile and -memprofile
// serve every door.
var flagDoors = map[string]door{
	"algebra": doorStatic, "topo": doorStatic, "n": doorStatic, "seed": doorStatic,
	"garbage": doorStatic, "policy": doorStatic, "mode": doorStatic, "steps": doorDelta,
	"loss": doorSim, "dup": doorSim, "delay": doorSim, "trace": doorSim,
	"stats-json": doorStatic | doorScenario, "substrate": doorScenario,
	"scenario": doorScenario | doorServer, "server": doorServer,
	"tenant": doorServer, "run-id": doorServer, "deadline": doorServer,
}

// options is what one invocation's run paths read: the parsed instance
// and schedule knobs and the streams to report on.
type options struct {
	mode      string // "sim" or "delta"
	steps     int    // -steps: the delta horizon T (0: 50·n)
	seed      int64
	garbage   bool
	sim       simulate.Config // -trace sets Trace: the sim run's event timeline
	statsJSON bool
	stdout    io.Writer
	stderr    io.Writer
}

// realMain runs one invocation and returns its exit status: 0 when the
// run converged, 1 when it did not, 2 on bad input. It carries the
// program body so deferred profile writers run before the status is
// surfaced (os.Exit would skip them).
func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("dbfsim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		algebra = fs.String("algebra", "rip", "routing algebra: shortest|rip|widest|pv|gr|policy")
		topo    = fs.String("topo", "ring", "topology: line|ring|grid|clique|star|random|fattree")
		n       = fs.Int("n", 6, "number of nodes (fattree: k, nodes = 5k²/4)")
		seed    = fs.Int64("seed", 1, "simulation seed")
		loss    = fs.Float64("loss", 0.1, "message loss probability")
		dup     = fs.Float64("dup", 0.05, "message duplication probability")
		delay   = fs.Int64("delay", 10, "max message delay (virtual ticks)")
		garbage = fs.Bool("garbage", false,
			"start from a random state instead of the clean state (shortest|rip|widest|policy)")
		polSrc = fs.String("policy", "lp+=1",
			"policy program applied on every edge when -algebra policy (Section 7 syntax)")
		showTrace = fs.Bool("trace", false, "print the route-change timeline after the run")
		modeFlag  = fs.String("mode", "sim", "evaluation substrate: sim (event simulator) | delta (schedule-driven engine)")
		stepsFlag = fs.Int("steps", 0, "delta mode: schedule horizon T (default 50·n)")
		cpuProf   = fs.String("cpuprofile", "", "write a CPU profile to this file")
		memProf   = fs.String("memprofile", "", "write a heap profile to this file on exit")
		scenFile  = fs.String("scenario", "",
			"play a dynamic-event scenario file instead of a static run (see internal/scenario)")
		substrate = fs.String("substrate", "engine",
			"scenario mode: substrate(s) to play the timeline on: engine|sim|dist|all")
		serverAddr = fs.String("server", "",
			"submit -scenario to a running dbfsimd daemon at this address instead of running locally")
		tenantFlag = fs.String("tenant", "cli",
			"tenant name for -server submissions")
		runIDFlag = fs.String("run-id", "",
			"run id for -server submissions (default: derived from the scenario name and time)")
		deadlineFlag = fs.Duration("deadline", 0,
			"optional completion deadline for -server submissions (0 = none)")
		jsonFlag = fs.Bool("stats-json", false,
			"emit the final run statistics (or scenario watchdog verdicts) as a single JSON object on stdout, suppressing the human-readable report")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	// The fault flags take what a scenario file may say: a delay of at
	// least one tick, and probabilities the scenario parser accepts.
	if *delay < 1 {
		fmt.Fprintf(stderr, "-delay %d: want at least 1 (virtual ticks)\n", *delay)
		return 2
	}
	for _, p := range []struct {
		name string
		v    float64
	}{{"loss", *loss}, {"dup", *dup}} {
		if !(p.v >= 0 && p.v <= scenario.MaxFaultProb) {
			fmt.Fprintf(stderr, "-%s %g: want a probability in [0, %g]\n", p.name, p.v, scenario.MaxFaultProb)
			return 2
		}
	}
	o := &options{
		mode: *modeFlag, steps: *stepsFlag, seed: *seed, garbage: *garbage,
		sim:       simulate.Config{Seed: *seed, LossProb: *loss, DupProb: *dup, MaxDelay: *delay},
		statsJSON: *jsonFlag, stdout: stdout, stderr: stderr,
	}

	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 2
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(stderr, err)
			return 2
		}
		defer pprof.StopCPUProfile()
	}
	if *memProf != "" {
		defer func() {
			f, err := os.Create(*memProf)
			if err != nil {
				fmt.Fprintln(stderr, err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(stderr, err)
			}
		}()
	}

	d := doorSim
	switch {
	case *serverAddr != "":
		d = doorServer
	case *scenFile != "":
		d = doorScenario
	case o.mode == "delta":
		d = doorDelta
	}
	fs.Visit(func(f *flag.Flag) {
		if readers, ok := flagDoors[f.Name]; ok && readers&d == 0 {
			why := "is not read by " + doorNames[d]
			if d&doorStatic == 0 && readers&^doorStatic == 0 {
				why = "is set by the scenario file under -scenario"
			}
			fmt.Fprintf(stderr, "(-%s %s; ignoring)\n", f.Name, why)
		}
	})
	switch d {
	case doorServer:
		return o.runRemote(*serverAddr, *scenFile, *tenantFlag, *runIDFlag, *deadlineFlag)
	case doorScenario:
		return o.runScenario(*scenFile, *substrate)
	}

	if o.mode != "sim" && o.mode != "delta" {
		fmt.Fprintf(stderr, "unknown mode %q\n", o.mode)
		return 2
	}
	if *showTrace && d == doorSim {
		o.sim.Trace = &trace.Recorder{}
	}
	if o.garbage && (*algebra == "pv" || *algebra == "gr") {
		fmt.Fprintf(stderr, "-garbage applies to -algebra shortest|rip|widest|policy only, not %s\n", *algebra)
		return 2
	}

	g, err := topology.Named(*topo, *n, *seed)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}

	switch *algebra {
	case "shortest":
		alg := algebras.ShortestPaths{}
		return runNat[algebras.ShortestPaths](o, alg, topology.BuildUniform[algebras.NatInf](g, alg.AddEdge(1)),
			[]algebras.NatInf{0, 1, 2, algebras.Inf})
	case "rip":
		alg := algebras.RIP()
		return runNat[algebras.HopCount](o, alg, topology.BuildUniform[algebras.NatInf](g, alg.AddEdge(1)), alg.Universe())
	case "widest":
		alg := algebras.WidestPaths{}
		rng := rand.New(rand.NewSource(*seed))
		adj := topology.Build[algebras.NatInf](g, func(i, j int) core.Edge[algebras.NatInf] {
			return alg.CapEdge(algebras.NatInf(1 + rng.Intn(9)))
		})
		return runNat[algebras.WidestPaths](o, alg, adj, []algebras.NatInf{0, 1, 5, algebras.Inf})
	case "pv":
		base := algebras.ShortestPaths{}
		baseAdj := topology.BuildUniform[algebras.NatInf](g, base.AddEdge(1))
		alg := pathalg.NewInterned[algebras.NatInf](base, nil)
		adj := pathalg.LiftAdjacencyInterned(alg, baseAdj)
		type R = pathalg.IRoute[algebras.NatInf]
		return run[R](o, alg, adj, matrix.Identity[R](alg, g.N))
	case "gr":
		alg := gaorexford.Algebra{MaxHops: 16}
		adj := topology.Build[gaorexford.Route](g, func(i, j int) core.Edge[gaorexford.Route] {
			// Orient relationships by node id: lower id = provider;
			// equal-tier links (adjacent ids) peer. This is arbitrary but
			// produces a valid GR instance on any graph.
			switch {
			case i == j-1 || j == i-1:
				return alg.Edge(gaorexford.PeerEdge)
			case i < j:
				return alg.Edge(gaorexford.CustomerEdge)
			default:
				return alg.Edge(gaorexford.ProviderEdge)
			}
		})
		return run[gaorexford.Route](o, alg, adj, matrix.Identity[gaorexford.Route](alg, g.N))
	case "policy":
		pol, err := policy.ParsePolicy(*polSrc)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 2
		}
		o.infof("policy on every edge: %s\n", pol)
		alg := policy.NewInterned(nil)
		adj := topology.Build[policy.IRoute](g, func(i, j int) core.Edge[policy.IRoute] {
			return alg.Edge(i, j, pol)
		})
		start := matrix.Identity[policy.IRoute](alg, g.N)
		if o.garbage {
			rng := rand.New(rand.NewSource(*seed))
			start = matrix.RandomState(rng, g.N, func(rng *rand.Rand, _, _ int) policy.IRoute {
				return alg.FromRoute(policy.RandomRoute(rng, g.N))
			})
		}
		return run[policy.IRoute](o, alg, adj, start)
	default:
		fmt.Fprintf(stderr, "unknown algebra %q\n", *algebra)
		return 2
	}
}

// runScenario plays a dynamic-event timeline from a scenario file on the
// named substrates and prints the per-substrate watchdog verdicts. Exit
// status: 0 when every substrate's verdict is Converged, 1 when any run
// wedged, oscillated, diverged, stayed undecided, or — engine only —
// disagreed with the reference evaluation; 2 on bad input.
func (o *options) runScenario(path, substrate string) int {
	sc, err := scenario.Load(path)
	if err != nil {
		fmt.Fprintln(o.stderr, err)
		return 2
	}
	var subs []string
	switch substrate {
	case "all":
		subs = []string{scenario.SubEngine, scenario.SubSim, scenario.SubDist}
	case scenario.SubEngine, scenario.SubSim, scenario.SubDist:
		subs = []string{substrate}
	default:
		fmt.Fprintf(o.stderr, "unknown substrate %q (want engine|sim|dist|all)\n", substrate)
		return 2
	}
	rep, err := scenario.Run(sc, subs...)
	if err != nil {
		fmt.Fprintln(o.stderr, err)
		return 2
	}
	if o.statsJSON {
		if err := o.emitJSON(scenarioJSON(rep)); err != nil {
			return 2
		}
	} else {
		fmt.Fprint(o.stdout, rep)
	}
	code := 0
	for _, sr := range rep.Substrates {
		if sr.Class.Verdict != scenario.VerdictConverged {
			code = 1
		}
		if sr.Substrate == scenario.SubEngine && !sr.ReferenceOK {
			fmt.Fprintln(o.stderr, "engine run disagreed with the reference evaluation")
			code = 1
		}
		if !o.statsJSON && len(rep.Substrates) <= 2 && sr.FinalTable != "" {
			fmt.Fprintf(o.stdout, "%s final tables:\n%s", sr.Substrate, sr.FinalTable)
		}
	}
	return code
}

func runNat[A core.Algebra[algebras.NatInf]](o *options, alg A, adj *matrix.Adjacency[algebras.NatInf],
	universe []algebras.NatInf) int {
	start := matrix.Identity[algebras.NatInf](alg, adj.N)
	if o.garbage {
		start = matrix.RandomStateFrom(rand.New(rand.NewSource(o.seed)), adj.N, universe)
	}
	return run[algebras.NatInf](o, alg, adj, start)
}

// run dispatches one configured instance to the selected substrate and
// returns the exit status.
func run[R any](o *options, alg core.Algebra[R], adj *matrix.Adjacency[R], start *matrix.State[R]) int {
	if o.mode == "delta" {
		return runDelta[R](o, alg, adj, start)
	}
	out := simulate.Run[R](alg, adj, start, o.sim, nil)
	code := 0
	if !out.Converged {
		code = 1
	}
	if o.statsJSON {
		convAt := out.ConvergedAt
		if !out.Converged {
			convAt = -1
		}
		if err := o.emitJSON(simStatsJSON{
			Mode: "sim", EndTime: out.EndTime,
			Sent: out.Stats.Sent, Delivered: out.Stats.Delivered,
			Dropped: out.Stats.Dropped, Duplicated: out.Stats.Duplicated,
			Activations: out.Stats.Activations,
			Converged:   out.Converged, ConvergedAt: convAt,
			Stable: matrix.IsStable[R](alg, adj, out.Final),
		}); err != nil {
			return 2
		}
		return code
	}
	fmt.Fprintln(o.stdout, out.Describe())
	report[R](o, alg, adj, out.Final)
	return code
}

// runDelta evaluates δ over a lazy pseudo-random bounded-staleness
// schedule (O(1) schedule memory at any n and T) with the sharded engine
// and reports whether the horizon reached the σ fixed point. The lazy
// schedule is a pure function of (seed, t, i, k), so the flags alone
// determine the run bit for bit.
func runDelta[R any](o *options, alg core.Algebra[R], adj *matrix.Adjacency[R], start *matrix.State[R]) int {
	n := adj.N
	T := o.steps
	if T <= 0 {
		T = 50 * n
	}
	eng := engine.New[R](alg, adj, engine.Config{})
	defer eng.Close()
	res := eng.Run(start, engine.Hashed{N: n, T: T, Seed: uint64(o.seed), MaxStaleness: 8})
	st := res.Stats()
	if o.statsJSON {
		stable := matrix.IsStable[R](alg, adj, res.Final())
		if err := o.emitJSON(deltaJSON(st, T, stable)); err != nil {
			return 2
		}
		if !stable {
			return 1
		}
		return 0
	}
	fmt.Fprintf(o.stdout, "δ engine: T=%d of %d, rows computed=%d, rows skipped=%d, cells computed=%d\n",
		st.Steps, T, st.RowsComputed, st.RowsSkipped, st.CellsComputed)
	if at, ok := res.Converged(); ok {
		fmt.Fprintf(o.stdout, "          converged at t=%d (certified; run stopped %d steps early)\n", at, T-st.Steps)
	} else {
		fmt.Fprintln(o.stdout, "          convergence not certified within the horizon")
	}
	if !report[R](o, alg, adj, res.Final()) {
		return 1
	}
	return 0
}

// report prints the outcome and returns whether the final state is a
// fixed point of σ.
func report[R any](o *options, alg core.Algebra[R], adj *matrix.Adjacency[R], final *matrix.State[R]) bool {
	stable := matrix.IsStable[R](alg, adj, final)
	fmt.Fprintf(o.stdout, "final state σ-stable: %v\n", stable)
	if adj.N <= 12 {
		fmt.Fprintln(o.stdout, "routing tables (row i = node i's best route to each destination):")
		fmt.Fprint(o.stdout, final.Format(alg))
	} else {
		fmt.Fprintf(o.stdout, "(%d nodes; tables suppressed, rerun with -n ≤ 12 to print them)\n", adj.N)
	}
	if o.sim.Trace != nil {
		fmt.Fprintln(o.stdout, "\nroute-change timeline:")
		o.sim.Trace.Timeline(o.stdout, 40)
		o.sim.Trace.Summary(o.stdout)
	}
	return stable
}
