package main

import (
	"encoding/json"
	"fmt"
	"io"
	"time"
)

// options is one run's input: everything else is derived from it.
type options struct {
	workload string
	seed     uint64
	seconds  float64 // measured duration; callers finish their seed cycle past it
	trace    bool
	smoke    bool   // seconds-scale instance sizes and op counts, for the self-test
	outDir   string // where the traced pass writes its spans; "" = nowhere
}

// minCycles is the number of seed cycles every caller of a measured
// loop completes whatever -seconds says: 13 cycles are the 104 ops that
// put 100 samples under each median. Only engine_dv_n512, at a third of
// a second per op, needs longer than the measured duration for them.
func (o options) minCycles() int {
	if o.smoke {
		return 1
	}
	return 13
}

// report is one run's outcome.
type report struct {
	Workload  string             `json:"workload"`
	Seed      uint64             `json:"seed"`
	Traced    bool               `json:"traced"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Samples   int                `json:"latency_samples"`
	MeasuredS float64            `json:"measured_s,omitempty"` // wall time of the untraced measured phase
	Digest    string             `json:"result_digest"`
	Metrics   map[string]float64 `json:"metrics"`
	Failures  []string           `json:"failures,omitempty"`
	Notes     []string           `json:"notes,omitempty"`
}

func newReport(o options) *report {
	return &report{
		Workload: o.workload, Seed: o.seed, Traced: o.trace,
		Metrics: map[string]float64{},
	}
}

// fail counts one failed op (or one failed whole-run check) and keeps
// the first few reasons for the printout.
func (r *report) fail(format string, args ...any) {
	r.Failed++
	if len(r.Failures) < 8 {
		r.Failures = append(r.Failures, fmt.Sprintf(format, args...))
	}
}

func (r *report) note(format string, args ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

func (r *report) correct() bool { return r.Failed == 0 && r.Attempted > 0 }

// endToEnd sets the metrics of an untraced run: the gated four, and the
// per-layer figures this pass measures better than the shorter traced
// one (work count, p90 under `layer`, memory high-water mark). wall and
// cpu span the whole measured phase; lat holds the latencies of its
// correct ops, so a failed op lowers the throughput and still costs its
// CPU.
func (r *report) endToEnd(layer string, setup, wall, cpu time.Duration, lat []time.Duration, cells float64) {
	r.Samples, r.MeasuredS = len(lat), wall.Seconds()
	sorted := msSorted(lat)
	m := r.Metrics
	m["setup_s"] = setup.Seconds()
	m["throughput_ops_s"] = float64(len(lat)) / wall.Seconds()
	m["latency_p50_ms"] = percentile(sorted, 0.50)
	m["cpu_ms_per_op"] = ms(cpu) / float64(r.Attempted)
	m[layer+".latency_p90_ms"] = percentile(sorted, 0.90)
	m[cellsPerOp] = cells
	r.peakRSS()
}

// peakRSS sets process.peak_rss_mb to the VmHWM reached so far.
func (r *report) peakRSS() {
	rss, err := peakRSSMB()
	if err != nil {
		r.fail("%s: %v", peakRSS, err)
	}
	r.Metrics[peakRSS] = rss
}

// declared returns the metric list this run must emit.
func declared(traced bool) []metricSpec {
	if traced {
		return perLayer
	}
	return endToEnd
}

// driverLine renders the one-line JSON object the driver reads: exactly
// the declared metrics of the pass, each with its unit. A per-layer
// metric the workload's path never crosses reads 0.
func (r *report) driverLine() ([]byte, error) {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{r.correct(), r.Attempted, r.Failed, map[string]mv{}}
	for _, m := range declared(r.Traced) {
		out.Metrics[m.Name] = mv{r.Metrics[m.Name], m.Unit}
	}
	return json.Marshal(out)
}

// print writes the human-readable table, the whole report on one line
// (what -set and -repeat read from their children), and the driver line
// last.
func (r *report) print(w io.Writer) error {
	pass := "end-to-end (untraced)"
	if r.Traced {
		pass = "per-layer (traced)"
	}
	fmt.Fprintf(w, "workload %s  seed %d  pass %s\n", r.Workload, r.Seed, pass)
	fmt.Fprintf(w, "ops attempted %d  failed %d  latency samples %d  result digest %s\n",
		r.Attempted, r.Failed, r.Samples, r.Digest)
	if !r.Traced {
		fmt.Fprintf(w, "measured phase %.1f s\n", r.MeasuredS)
	}
	row := func(m metricSpec, tail string) {
		fmt.Fprintf(w, "  %-38s %16.6f %-6s (%s is better%s)\n", m.Name, r.Metrics[m.Name], m.Unit, m.Better, tail)
	}
	if !r.Traced {
		for _, m := range endToEnd {
			row(m, fmt.Sprintf(", bound %.2f", m.Bound))
		}
	}
	// The untraced pass prints the per-layer metrics it measured too.
	for _, m := range perLayer {
		if _, ok := r.Metrics[m.Name]; ok || r.Traced {
			row(m, "")
		}
	}
	for _, n := range r.Notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
	for _, f := range r.Failures {
		fmt.Fprintf(w, "  FAIL: %s\n", f)
	}
	b, err := json.Marshal(r)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%s%s\n", fullReportPrefix, b)
	line, err := r.driverLine()
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}
