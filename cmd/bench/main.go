// Command bench is the repository's benchmark: four closed-loop
// workloads that each stress a different set of layers, measured from
// outside — by timing calls into the layers' public functions and by
// reading metrics.Default and engine.Stats — with every result checked
// for correctness. bench/README.md describes the workloads, the metrics
// and how they interact; BENCHMARK.json declares them to the driver.
//
//	go run ./cmd/bench -workload svc_small_n8 -seed 1            # one workload, end-to-end pass
//	go run ./cmd/bench -workload svc_small_n8 -seed 1 -trace 1   # the same workload, per-layer pass
//	go run ./cmd/bench -set > bench/baseline.json                # all four, both passes
//	go run ./cmd/bench -repeat 3 > bench/repeatability.md        # three sets of the same code: do the medians repeat?
//
// One workload runs per process; -set and -repeat start one child
// process per run. The last line of a single run's standard output is
// the JSON object the driver reads. The exit status is 0 only when every
// op and every whole-run check passed.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
)

func main() { os.Exit(realMain()) }

func realMain() int {
	var (
		o      = options{outDir: "bench/out"}
		trace  = flag.Int("trace", 0, "0 = end-to-end pass (untraced), 1 = per-layer pass (traced)")
		set    = flag.Bool("set", false, "run every workload, both passes, one child process each, and print the reports as JSON")
		repeat = flag.Int("repeat", 0, "run N full untraced sets back-to-back and report how far their medians disagree")
	)
	flag.StringVar(&o.workload, "workload", "", "workload to run (see BENCHMARK.json)")
	flag.Uint64Var(&o.seed, "seed", 1, "input seed: equal seeds generate equal inputs")
	flag.Float64Var(&o.seconds, "seconds", runSeconds, "measured seconds per run")
	flag.BoolVar(&o.smoke, "smoke", false, "tiny instances and op counts: seconds for all four workloads")
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "bench: unexpected argument %q\n", flag.Arg(0))
		return 2
	}
	o.trace = *trace != 0

	switch {
	case *repeat > 0:
		return runRepeat(o, *repeat)
	case *set:
		return runSet(o)
	}

	rep, err := runWorkload(o)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 2
	}
	if err := rep.print(os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 2
	}
	if !rep.correct() {
		return 1
	}
	return 0
}

// runWorkload runs one workload in this process.
func runWorkload(o options) (*report, error) {
	switch o.workload {
	case "engine_dv_n512":
		return runEngineWorkload(o, buildDV)
	case "engine_policy_n128":
		return runEngineWorkload(o, buildPolicy)
	case "svc_sliced_n64", "svc_small_n8":
		return runServiceWorkload(o)
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %s)", o.workload, workloadList())
}

func workloadList() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.Name
	}
	return strings.Join(names, ", ")
}
