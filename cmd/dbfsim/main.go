// Command dbfsim runs one asynchronous Distributed Bellman-Ford
// simulation and prints the routing tables and convergence statistics.
//
// Usage:
//
//	dbfsim -algebra rip -topo ring -n 6 -seed 1 -loss 0.2 -dup 0.1
//	dbfsim -algebra policy -policy 'addc(3); if (comm(3)) { lp+=2 }'
//	dbfsim -algebra gr -topo fattree -n 4 -mode delta -steps 2000
//	dbfsim -scenario examples/scenarios/wedgie-flap.scenario -substrate all
//	dbfsim -mode delta -checkpoint run.ckpt -checkpoint-at 150
//	dbfsim -resume run.ckpt
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
// exit code is 0 only when every substrate converged.
// With -checkpoint (delta mode), the run halts right after step
// -checkpoint-at (default T/2) and writes a CRC-checksummed resumable
// checkpoint; -resume continues such a run to its horizon, rebuilding
// the instance from the checkpoint's own metadata — no other flags
// needed — and the continuation is bit-identical to the run that was
// never interrupted.
// The path-aware algebras (pv, policy) run over hash-consed interned
// paths, and in delta mode algebras that pack canonically (shortest,
// rip, pv, policy) evaluate through the columnar struct-of-arrays
// kernels; every delta run is change-driven and stops at its certified
// fixed point.
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"

	"repro/internal/algebras"
	"repro/internal/checkpoint"
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
	"repro/internal/wire"
)

func main() { os.Exit(realMain()) }

// realMain carries the program body so deferred profile writers run
// before the exit code is surfaced (os.Exit would skip them).
func realMain() int {
	var (
		algebra = flag.String("algebra", "rip", "routing algebra: shortest|rip|widest|pv|gr|policy")
		topo    = flag.String("topo", "ring", "topology: line|ring|grid|clique|star|random|fattree")
		n       = flag.Int("n", 6, "number of nodes (fattree: k, nodes = 5k²/4)")
		seed    = flag.Int64("seed", 1, "simulation seed")
		loss    = flag.Float64("loss", 0.1, "message loss probability")
		dup     = flag.Float64("dup", 0.05, "message duplication probability")
		delay   = flag.Int64("delay", 10, "max message delay (virtual ticks)")
		garbage = flag.Bool("garbage", false, "start from a random state instead of the clean state")
		polSrc  = flag.String("policy", "lp+=1",
			"policy program applied on every edge when -algebra policy (Section 7 syntax)")
		showTrace = flag.Bool("trace", false, "print the route-change timeline after the run")
		modeFlag  = flag.String("mode", "sim", "evaluation substrate: sim (event simulator) | delta (schedule-driven engine)")
		stepsFlag = flag.Int("steps", 0, "delta mode: schedule horizon T (default 50·n)")
		cpuProf   = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProf   = flag.String("memprofile", "", "write a heap profile to this file on exit")
		scenFile  = flag.String("scenario", "",
			"play a dynamic-event scenario file instead of a static run (see internal/scenario)")
		substrate = flag.String("substrate", "engine",
			"scenario mode: substrate(s) to play the timeline on: engine|sim|dist|all")
		ckptFile = flag.String("checkpoint", "",
			"delta mode: halt right after step -checkpoint-at and write a resumable checkpoint to this file")
		ckptAt = flag.Int("checkpoint-at", 0,
			"delta mode: step to checkpoint at (default T/2)")
		serverAddr = flag.String("server", "",
			"submit -scenario to a running dbfsimd daemon at this address instead of running locally")
		tenantFlag = flag.String("tenant", "cli",
			"tenant name for -server submissions")
		runIDFlag = flag.String("run-id", "",
			"run id for -server submissions (default: derived from the scenario name and time)")
		deadlineFlag = flag.Duration("deadline", 0,
			"optional completion deadline for -server submissions (0 = none)")
		resumeFile = flag.String("resume", "",
			"resume a checkpointed delta run to its horizon; the instance is rebuilt from the checkpoint's metadata and all other instance flags are ignored")
		jsonFlag = flag.Bool("stats-json", false,
			"emit the final run statistics (or scenario watchdog verdicts) as a single JSON object on stdout, suppressing the human-readable report")
	)
	flag.Parse()
	statsJSON = *jsonFlag

	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProf != "" {
		defer func() {
			f, err := os.Create(*memProf)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, err)
			}
		}()
	}

	if *serverAddr != "" {
		return runRemote(*serverAddr, *scenFile, *tenantFlag, *runIDFlag, *deadlineFlag)
	}
	if *scenFile != "" {
		return runScenario(*scenFile, *substrate)
	}

	if *resumeFile != "" {
		if *ckptFile != "" {
			fmt.Fprintln(os.Stderr, "-checkpoint and -resume cannot be combined")
			return 2
		}
		data, err := os.ReadFile(*resumeFile)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 2
		}
		family, meta, err := checkpoint.Header(data)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 2
		}
		// Rebuild the instance exactly as the checkpointing run shaped it:
		// every knob that affects the algebra, topology or schedule comes
		// from the checkpoint's own metadata, not this invocation's flags.
		for key, dst := range map[string]*string{"algebra": algebra, "topo": topo, "policy": polSrc} {
			if v, ok := meta[key]; ok {
				*dst = v
			}
		}
		for key, dst := range map[string]*int{"n": n, "horizon": stepsFlag} {
			if v, err := strconv.Atoi(meta[key]); err == nil {
				*dst = v
			}
		}
		if v, err := strconv.ParseInt(meta["seed"], 10, 64); err == nil {
			*seed = v
		}
		*modeFlag = "delta"
		resumeData = data
		infof("resuming %s checkpoint %s (algebra %s, topo %s, n %d, seed %d)\n",
			family, *resumeFile, *algebra, *topo, *n, *seed)
	}

	mode = *modeFlag
	deltaSteps = *stepsFlag
	if mode != "sim" && mode != "delta" {
		fmt.Fprintf(os.Stderr, "unknown mode %q\n", mode)
		return 2
	}
	if *ckptFile != "" {
		if mode != "delta" {
			fmt.Fprintln(os.Stderr, "-checkpoint applies to -mode delta only")
			return 2
		}
		ckptPath, ckptAtStep = *ckptFile, *ckptAt
		ckptMeta = map[string]string{
			"algebra": *algebra,
			"topo":    *topo,
			"n":       strconv.Itoa(*n),
			"seed":    strconv.FormatInt(*seed, 10),
		}
		if *algebra == "policy" {
			ckptMeta["policy"] = *polSrc
		}
	}
	if mode == "delta" {
		flag.Visit(func(f *flag.Flag) {
			switch f.Name {
			case "loss", "dup", "delay":
				fmt.Fprintf(os.Stderr, "(-%s models message faults and applies to -mode sim only; ignoring)\n", f.Name)
			}
		})
	}

	g := buildGraph(*topo, *n, *seed)
	cfg := simulate.Config{Seed: *seed, LossProb: *loss, DupProb: *dup, MaxDelay: *delay}
	if *showTrace {
		recorder = &trace.Recorder{}
	}

	switch *algebra {
	case "shortest":
		alg := algebras.ShortestPaths{}
		runNat[algebras.ShortestPaths](alg, topology.BuildUniform[algebras.NatInf](g, alg.AddEdge(1)), cfg, *garbage, *seed,
			[]algebras.NatInf{0, 1, 2, algebras.Inf})
	case "rip":
		alg := algebras.RIP()
		runNat[algebras.HopCount](alg, topology.BuildUniform[algebras.NatInf](g, alg.AddEdge(1)), cfg, *garbage, *seed, alg.Universe())
	case "widest":
		alg := algebras.WidestPaths{}
		rng := rand.New(rand.NewSource(*seed))
		adj := topology.Build[algebras.NatInf](g, func(i, j int) core.Edge[algebras.NatInf] {
			return alg.CapEdge(algebras.NatInf(1 + rng.Intn(9)))
		})
		runNat[algebras.WidestPaths](alg, adj, cfg, *garbage, *seed, []algebras.NatInf{0, 1, 5, algebras.Inf})
	case "pv":
		base := algebras.ShortestPaths{}
		baseAdj := topology.BuildUniform[algebras.NatInf](g, base.AddEdge(1))
		alg := pathalg.NewInterned[algebras.NatInf](base, nil)
		adj := pathalg.LiftAdjacencyInterned(alg, baseAdj)
		type R = pathalg.IRoute[algebras.NatInf]
		start := matrix.Identity[R](alg, g.N)
		run[R](alg, adj, start, cfg, *seed, "pv-interned",
			wire.InternedPathCodec[algebras.NatInf]{Alg: alg, Base: wire.NatInfCodec{}})
	case "gr":
		alg := gaorexford.Algebra{MaxHops: 16}
		rng := rand.New(rand.NewSource(*seed))
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
		_ = rng
		start := matrix.Identity[gaorexford.Route](alg, g.N)
		run[gaorexford.Route](alg, adj, start, cfg, *seed, "gaorexford", wire.GaoRexfordCodec{})
	case "policy":
		pol, err := policy.ParsePolicy(*polSrc)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 2
		}
		infof("policy on every edge: %s\n", pol)
		alg := policy.NewInterned(nil)
		adj := topology.Build[policy.IRoute](g, func(i, j int) core.Edge[policy.IRoute] {
			return alg.Edge(i, j, pol)
		})
		start := matrix.Identity[policy.IRoute](alg, g.N)
		if *garbage {
			rng := rand.New(rand.NewSource(*seed))
			start = matrix.RandomState(rng, g.N, func(rng *rand.Rand, _, _ int) policy.IRoute {
				return alg.FromRoute(policy.RandomRoute(rng, g.N))
			})
		}
		run[policy.IRoute](alg, adj, start, cfg, *seed, "policy-interned", wire.InternedPolicyCodec{Alg: alg})
	default:
		fmt.Fprintf(os.Stderr, "unknown algebra %q\n", *algebra)
		return 2
	}
	return exitCode
}

// runScenario plays a dynamic-event timeline from a scenario file on the
// named substrates and prints the per-substrate watchdog verdicts. Exit
// status: 0 when every substrate's verdict is Converged, 1 when any run
// wedged, oscillated, diverged, stayed undecided, or — engine only —
// disagreed with the reference evaluation; 2 on bad input.
func runScenario(path, substrate string) int {
	sc, err := scenario.Load(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	var subs []string
	switch substrate {
	case "all":
		subs = []string{scenario.SubEngine, scenario.SubSim, scenario.SubDist}
	case scenario.SubEngine, scenario.SubSim, scenario.SubDist:
		subs = []string{substrate}
	default:
		fmt.Fprintf(os.Stderr, "unknown substrate %q (want engine|sim|dist|all)\n", substrate)
		return 2
	}
	rep, err := scenario.Run(sc, subs...)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	if statsJSON {
		emitJSON(scenarioJSON(rep))
	} else {
		fmt.Print(rep)
	}
	code := 0
	for _, sr := range rep.Substrates {
		if sr.Class.Verdict != scenario.VerdictConverged {
			code = 1
		}
		if sr.Substrate == scenario.SubEngine && !sr.ReferenceOK {
			fmt.Fprintln(os.Stderr, "engine run disagreed with the reference evaluation")
			code = 1
		}
		if !statsJSON && len(rep.Substrates) <= 2 && sr.FinalTable != "" {
			fmt.Printf("%s final tables:\n%s", sr.Substrate, sr.FinalTable)
		}
	}
	return code
}

// recorder, when non-nil, captures the run's event timeline for -trace.
var recorder *trace.Recorder

// mode selects the evaluation substrate; deltaSteps is -steps; exitCode
// is the eventual process status (set instead of os.Exit so deferred
// profile writers run).
var (
	mode       string
	deltaSteps int
	exitCode   int
)

// ckptPath/ckptAtStep/ckptMeta configure a checkpoint-and-halt delta
// run; resumeData, when non-nil, holds the checkpoint bytes a delta run
// restores from instead of starting fresh.
var (
	ckptPath   string
	ckptAtStep int
	ckptMeta   map[string]string
	resumeData []byte
)

func buildGraph(topo string, n int, seed int64) topology.Graph {
	switch topo {
	case "line":
		return topology.Line(n)
	case "ring":
		return topology.Ring(n)
	case "grid":
		side := 2
		for side*side < n {
			side++
		}
		return topology.Grid(side, side)
	case "clique":
		return topology.Complete(n)
	case "star":
		return topology.Star(n)
	case "random":
		return topology.ErdosRenyi(rand.New(rand.NewSource(seed)), n, 0.3)
	case "fattree":
		g, _ := topology.FatTree(n)
		return g
	default:
		fmt.Fprintf(os.Stderr, "unknown topology %q\n", topo)
		os.Exit(2)
		return topology.Graph{}
	}
}

func runNat[A core.Algebra[algebras.NatInf]](alg A, adj *matrix.Adjacency[algebras.NatInf],
	cfg simulate.Config, garbage bool, seed int64, universe []algebras.NatInf) {
	start := matrix.Identity[algebras.NatInf](alg, adj.N)
	if garbage {
		start = matrix.RandomStateFrom(rand.New(rand.NewSource(seed)), adj.N, universe)
	}
	run[algebras.NatInf](alg, adj, start, cfg, seed, "natinf", wire.NatInfCodec{})
}

// run dispatches one configured instance to the selected substrate.
// family and codec name the carrier's checkpoint representation; the
// simulator path never serialises and ignores them.
func run[R any](alg core.Algebra[R], adj *matrix.Adjacency[R], start *matrix.State[R],
	cfg simulate.Config, seed int64, family string, codec wire.Codec[R]) {
	switch mode {
	case "delta":
		runDelta[R](alg, adj, start, seed, family, codec)
	default:
		out := simulate.RunTraced[R](alg, adj, start, cfg, nil, nil, recorder)
		if statsJSON {
			convAt := out.ConvergedAt
			if !out.Converged {
				convAt = -1
			}
			emitJSON(simStatsJSON{
				Mode: "sim", EndTime: out.EndTime,
				Sent: out.Stats.Sent, Delivered: out.Stats.Delivered,
				Dropped: out.Stats.Dropped, Duplicated: out.Stats.Duplicated,
				Activations: out.Stats.Activations,
				Converged:   out.Converged, ConvergedAt: convAt,
				Stable: matrix.IsStable[R](alg, adj, out.Final),
			})
		} else {
			fmt.Println(out.Describe())
			report[R](alg, adj, out.Final)
		}
		if !out.Converged {
			exitCode = 1
		}
	}
}

// runDelta evaluates δ over a lazy pseudo-random bounded-staleness
// schedule (O(1) schedule memory at any n and T) with the sharded engine
// and reports whether the horizon reached the σ fixed point. The lazy
// schedule is a pure function of (seed, t, i, k), which is what lets a
// resumed run re-derive the exact activation sequence from the metadata
// alone — the checkpoint carries no schedule state beyond the step index.
func runDelta[R any](alg core.Algebra[R], adj *matrix.Adjacency[R], start *matrix.State[R],
	seed int64, family string, codec wire.Codec[R]) {
	if recorder != nil {
		fmt.Fprintln(os.Stderr, "(-trace records message events and applies to -mode sim only; ignoring)")
		recorder = nil
	}
	n := adj.N
	T := deltaSteps
	if T <= 0 {
		T = 50 * n
	}
	src := engine.Hashed{N: n, T: T, Seed: uint64(seed), MaxStaleness: 8}
	eng := engine.New[R](alg, adj, engine.Config{})
	defer eng.Close()
	var res *engine.Result[R]
	switch {
	case resumeData != nil:
		f, err := checkpoint.Decode(codec, resumeData, family)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			exitCode = 2
			return
		}
		r, err := eng.Restore(f.Snap, src)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			exitCode = 2
			return
		}
		infof("restored at step %d, continuing to T=%d\n", f.Snap.Step, T)
		res = r
	case ckptPath != "":
		at := ckptAtStep
		if at <= 0 {
			at = T / 2
		}
		if at < 1 {
			at = 1
		}
		if at > T {
			fmt.Fprintf(os.Stderr, "checkpoint step %d beyond horizon %d\n", at, T)
			exitCode = 2
			return
		}
		r, snap := eng.RunSnapshot(start, src, at, true)
		if snap == nil {
			infof("run certified convergence at t=%d, before checkpoint step %d; nothing to resume, no checkpoint written\n",
				mustConvergedAt(r), at)
			res = r
			break
		}
		ckptMeta["horizon"] = strconv.Itoa(T)
		data, err := checkpoint.Encode(codec, &checkpoint.File[R]{Family: family, Meta: ckptMeta, Snap: snap})
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			exitCode = 2
			return
		}
		if err := os.WriteFile(ckptPath, data, 0o644); err != nil {
			fmt.Fprintln(os.Stderr, err)
			exitCode = 2
			return
		}
		infof("checkpoint written to %s at step %d of %d (%d bytes); resume with -resume %s\n",
			ckptPath, at, T, len(data), ckptPath)
		// The halted prefix is not a finished run: skip the stability
		// report (and its exit-code gate) — the resuming process owns it.
		return
	default:
		res = eng.Run(start, src)
	}
	st := res.Stats()
	if statsJSON {
		stable := matrix.IsStable[R](alg, adj, res.Final())
		emitJSON(deltaJSON(st, T, stable))
		if !stable {
			exitCode = 1
		}
		return
	}
	fmt.Printf("δ engine: T=%d of %d, rows computed=%d, rows skipped=%d, cells computed=%d\n",
		st.Steps, T, st.RowsComputed, st.RowsSkipped, st.CellsComputed)
	if at, ok := res.Converged(); ok {
		fmt.Printf("          converged at t=%d (certified; run stopped %d steps early)\n", at, T-st.Steps)
	} else {
		fmt.Println("          convergence not certified within the horizon")
	}
	if stable := report[R](alg, adj, res.Final()); !stable {
		exitCode = 1
	}
}

// mustConvergedAt reports where a run certified convergence; it is only
// called on runs RunSnapshot ended early, which implies certification.
func mustConvergedAt[R any](r *engine.Result[R]) int {
	at, _ := r.Converged()
	return at
}

// report prints the outcome and returns whether the final state is a
// fixed point of σ.
func report[R any](alg core.Algebra[R], adj *matrix.Adjacency[R], final *matrix.State[R]) bool {
	stable := matrix.IsStable[R](alg, adj, final)
	fmt.Printf("final state σ-stable: %v\n", stable)
	if adj.N <= 12 {
		fmt.Println("routing tables (row i = node i's best route to each destination):")
		fmt.Print(final.Format(alg))
	} else {
		fmt.Printf("(%d nodes; tables suppressed, rerun with -n ≤ 12 to print them)\n", adj.N)
	}
	if recorder != nil {
		fmt.Println("\nroute-change timeline:")
		recorder.Timeline(os.Stdout, 40)
		recorder.Summary(os.Stdout)
	}
	return stable
}
