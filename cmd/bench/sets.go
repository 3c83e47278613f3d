package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"time"
)

// fullReportPrefix marks the line on which a child prints its whole
// report for the parent; the driver line still comes last.
const fullReportPrefix = "report: "

// runChild runs one workload in a fresh process of this same binary and
// returns its report. The child's failure to pass its own checks is
// reported through the report, not as an error.
func runChild(o options) (*report, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	trace := "0"
	if o.trace {
		trace = "1"
	}
	args := []string{"-workload", o.workload, "-seed", fmt.Sprint(o.seed),
		"-seconds", fmt.Sprint(o.seconds), "-trace", trace}
	if o.smoke {
		args = append(args, "-smoke")
	}
	cmd := exec.Command(exe, args...)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if _, exited := err.(*exec.ExitError); err != nil && !exited {
		return nil, fmt.Errorf("%s: %w", o.workload, err)
	}
	for _, line := range bytes.Split(out, []byte("\n")) {
		if rest, ok := bytes.CutPrefix(line, []byte(fullReportPrefix)); ok {
			rep := new(report)
			if err := json.Unmarshal(rest, rep); err != nil {
				return nil, fmt.Errorf("%s: child report: %w", o.workload, err)
			}
			return rep, nil
		}
	}
	return nil, fmt.Errorf("%s: child printed no report (%v)", o.workload, err)
}

func logRun(rep *report) {
	pass := "untraced"
	if rep.Traced {
		pass = "traced"
	}
	fmt.Fprintf(os.Stderr, "bench: %-20s seed %-4d %-8s ops %-7d failed %d\n",
		rep.Workload, rep.Seed, pass, rep.Attempted, rep.Failed)
}

// runSet runs every workload once per pass and prints the reports with
// the facts needed to read them later.
func runSet(o options) int {
	set := struct {
		Generated string    `json:"generated"`
		Commit    string    `json:"commit"`
		GoVersion string    `json:"go_version"`
		NumCPU    int       `json:"nproc"`
		Seed      uint64    `json:"seed"`
		Seconds   float64   `json:"seconds"`
		Runs      []*report `json:"runs"`
	}{
		Generated: time.Now().UTC().Format(time.RFC3339), Commit: "unknown",
		GoVersion: runtime.Version(), NumCPU: runtime.NumCPU(), Seed: o.seed, Seconds: o.seconds,
	}
	// The checkout the driver runs in is not a git repository; the commit
	// is recorded only where git can name it.
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		set.Commit = strings.TrimSpace(string(out))
	}
	failed := 0
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			o.workload, o.trace = w.Name, traced
			rep, err := runChild(o)
			if err != nil {
				fmt.Fprintf(os.Stderr, "bench: %v\n", err)
				return 2
			}
			logRun(rep)
			failed += rep.Failed
			set.Runs = append(set.Runs, rep)
		}
	}
	b, err := json.MarshalIndent(set, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 2
	}
	fmt.Printf("%s\n", b)
	if failed > 0 {
		return 1
	}
	return 0
}

// relDev is the largest pairwise relative deviation of a set of values:
// (max − min) ÷ min.
func relDev(v []float64) float64 {
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, x := range v {
		lo, hi = math.Min(lo, x), math.Max(hi, x)
	}
	if lo <= 0 {
		return 0
	}
	return (hi - lo) / lo
}

func fmtValues(v []float64) string {
	s := make([]string, len(v))
	for i, x := range v {
		s[i] = fmt.Sprintf("%.4g", x)
	}
	return strings.Join(s, " · ")
}

// setSeeds is the number of runs one set of -repeat makes per workload,
// each with another seed. A set's value of a metric is the median over
// them — the driver, too, compares medians over its seeds.
const setSeeds = 3

// runRepeat runs n full untraced sets back-to-back, rotating the
// workload order from pass to pass and set to set, and prints for every
// workload × metric the set medians, their largest pairwise relative
// deviation and the declared bound. It fails when a deviation exceeds
// half its bound, when engine.cells_per_op or a result digest of one seed
// differs between sets, or when any op failed.
func runRepeat(o options, n int) int {
	// The gated metrics, and the work count, which must repeat exactly.
	rows := append(append([]metricSpec{}, endToEnd...), metricSpec{Name: cellsPerOp, Unit: "count"})
	values := map[string]map[string][]float64{} // workload → metric → set medians
	digests := map[string]map[string]bool{}     // workload/seed → digests seen
	bad := 0
	for s := 0; s < n; s++ {
		// One pass over the workloads per seed, so a workload's runs lie
		// minutes apart and a passing fast or slow spell of the machine
		// reaches one of them, which the median then ignores.
		runs := map[string]map[string][]float64{}
		for j := 0; j < setSeeds; j++ {
			for i := range workloads {
				run := o
				run.workload, run.trace, run.seed = workloads[(i+s+j)%len(workloads)].Name, false, o.seed+uint64(j)
				rep, err := runChild(run)
				if err != nil {
					fmt.Fprintf(os.Stderr, "bench: %v\n", err)
					return 2
				}
				logRun(rep)
				bad += rep.Failed
				key := fmt.Sprintf("%s/%d", run.workload, run.seed)
				if digests[key] == nil {
					digests[key] = map[string]bool{}
				}
				digests[key][rep.Digest] = true
				if runs[run.workload] == nil {
					runs[run.workload] = map[string][]float64{}
				}
				for _, m := range rows {
					runs[run.workload][m.Name] = append(runs[run.workload][m.Name], rep.Metrics[m.Name])
				}
			}
		}
		for w, byMetric := range runs {
			if values[w] == nil {
				values[w] = map[string][]float64{}
			}
			for name, v := range byMetric {
				values[w][name] = append(values[w][name], median(v))
			}
		}
	}
	fmt.Printf("# Repeatability: %d sets of the same code, seeds %d–%d\n\n", n, o.seed, o.seed+setSeeds-1)
	fmt.Printf("%s, %d CPUs, %s; %.0f measured seconds per run; one fresh process per run.\n\n",
		runtime.Version(), runtime.NumCPU(), time.Now().UTC().Format("2006-01-02"), o.seconds)
	fmt.Printf("A set is %d passes over the workloads, one seed per pass, the workload order rotated\n", setSeeds)
	fmt.Println("from pass to pass; each row holds the sets' medians over those runs. `dev` is their largest pairwise")
	fmt.Println("relative deviation, (max − min) ÷ min; a row passes when `dev` is at most half the")
	fmt.Println("metric's bound. `engine.cells_per_op` (bound 0) and every seed's result digest must be")
	fmt.Println("identical in every set.")
	fmt.Println()
	for _, w := range workloads {
		fmt.Printf("## %s\n\n| metric | unit | set medians | dev | bound | |\n|---|---|---|---|---|---|\n", w.Name)
		for _, m := range rows {
			v := values[w.Name][m.Name]
			dev, limit := relDev(v), m.Bound/2
			verdict := "ok"
			if dev > limit {
				verdict = "FAIL"
				bad++
			}
			fmt.Printf("| `%s` | %s | %s | %.2f%% | %.0f%% | %s |\n", m.Name, m.Unit, fmtValues(v), 100*dev, 100*m.Bound, verdict)
		}
		fmt.Println()
	}
	for key, seen := range digests {
		if len(seen) != 1 {
			fmt.Printf("result digests of %s differ between sets: FAIL\n\n", key)
			bad++
		}
	}
	if bad > 0 {
		fmt.Printf("**FAIL**: %d rows or ops outside their limit.\n", bad)
		return 1
	}
	fmt.Println("**ok**: every set median repeats within half its bound; counts and digests are identical.")
	return 0
}
