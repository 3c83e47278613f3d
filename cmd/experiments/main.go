// Command experiments regenerates every table and figure of the paper;
// the usage line below is the experiment index.
//
// Usage:
//
//	experiments [-trials N] [all|table1|table2|fig1|fig2|dv|pv|policy|anomalies|gr|rate|async|bisim|dynamic|faults]...
package main

import (
	"flag"
	"fmt"
	"os"
)

import "repro/internal/expr"

func main() {
	trials := flag.Int("trials", 20, "trials per randomized sweep")
	flag.Parse()
	args := flag.Args()
	if len(args) == 0 {
		args = []string{"all"}
	}

	ok := true
	runOne := func(name string) {
		w := os.Stdout
		switch name {
		case "table1":
			ok = expr.Table1(w).OK() && ok
		case "table2":
			res := expr.Table2(w)
			for _, r := range res.Rows {
				ok = ok && r.LawsOK
			}
		case "fig1":
			ok = expr.Figure1(w, *trials).AllOK() && ok
		case "fig2":
			ok = expr.Figure2(w).OK && ok
		case "dv":
			ok = expr.DistanceVector(w, *trials).AllOK() && ok
		case "pv":
			ok = expr.PathVector(w, *trials).AllOK() && ok
		case "policy":
			ok = expr.SafeByDesign(w, 20*(*trials), *trials/2+1).OK() && ok
		case "anomalies":
			ok = expr.Anomalies(w, *trials/2+4).AllOK() && ok
		case "gr":
			ok = expr.GaoRexford(w, *trials).OK() && ok
		case "rate":
			res := expr.ConvergenceRate(w, []int{4, 6, 8, 10}, *trials)
			ok = res.DistributiveLinear && res.IncreasingQuadratic && ok
		case "async":
			ok = expr.AsyncEquivalence(w, *trials).OK() && ok
		case "bisim":
			ok = expr.Bisimulation(w, *trials).OK() && ok
		case "dynamic":
			ok = expr.Dynamic(w, *trials).OK() && ok
		case "faults":
			ok = expr.FaultSensitivity(w, *trials).AllConverged() && ok
		default:
			fmt.Fprintf(os.Stderr, "unknown experiment %q\n", name)
			os.Exit(2)
		}
	}

	for _, name := range args {
		if name == "all" {
			for _, n := range []string{"table1", "table2", "fig1", "fig2", "dv", "pv", "policy", "anomalies", "gr", "rate", "async", "bisim", "dynamic", "faults"} {
				runOne(n)
			}
			continue
		}
		runOne(name)
	}
	if !ok {
		fmt.Fprintln(os.Stderr, "\nSOME EXPERIMENTS DEVIATED FROM THE PAPER'S PREDICTIONS")
		os.Exit(1)
	}
	fmt.Println("\nall experiments matched the paper's predictions")
}
