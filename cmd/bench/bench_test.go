package main

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"regexp"
	"sort"
	"testing"
	"time"
)

func TestPercentile(t *testing.T) {
	v := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct{ p, want float64 }{{0, 1}, {0.5, 5.5}, {0.9, 9.1}, {1, 10}} {
		if got := percentile(v, c.p); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of no samples = %v, want 0", got)
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median = %v, want 2", got)
	}
}

func TestRelDev(t *testing.T) {
	if got, want := relDev([]float64{100, 105, 95}), 10.0/95; got != want {
		t.Errorf("relDev = %v, want %v", got, want)
	}
}

func TestSelfPerOp(t *testing.T) {
	spans := []span{
		{ID: 1, OpID: 7, Name: "request", Start: 0, End: 100e6},
		{ID: 2, OpID: 7, Parent: 1, Name: "server.admit", Start: 0, End: 30e6},
		{ID: 3, OpID: 7, Parent: 1, Name: "server.await", Start: 30e6, End: 95e6},
		{ID: 4, OpID: 8, Name: "request", Start: 200e6, End: 260e6},
		{ID: 5, OpID: 8, Parent: 4, Name: "server.await", Start: 210e6, End: 230e6},
		{ID: 6, OpID: 8, Parent: 4, Name: "server.await", Start: 230e6, End: 260e6},
	}
	got := selfPerOp(spans)
	for _, v := range got {
		sort.Float64s(v)
	}
	want := map[string][]float64{"request": {5, 10}, "server.admit": {30}, "server.await": {50, 65}}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("selfPerOp = %v, want %v", got, want)
	}
	if layerOf("server.await") != "server" || layerOf("request") != "request" {
		t.Errorf("layerOf splits wrongly")
	}
}

// BENCHMARK.json is what the driver reads and spec.go what the harness
// emits: they must name the same workloads and metrics.
func TestSpecMatchesBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var file benchmarkFile
	if err := json.Unmarshal(raw, &file); err != nil {
		t.Fatal(err)
	}
	if want := declaredFile(); !reflect.DeepEqual(file, want) {
		b, _ := json.MarshalIndent(want, "", "  ")
		t.Errorf("BENCHMARK.json differs from spec.go, which declares:\n%s", b)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(n string) {
		if !name.MatchString(n) {
			t.Errorf("name %q is outside the driver's alphabet", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	for _, w := range workloads {
		check(w.Name)
		if len(w.Why) > 200 {
			t.Errorf("workload %s: why is %d characters, limit 200", w.Name, len(w.Why))
		}
	}
	hasSetup := false
	for _, m := range append(append([]metricSpec{}, endToEnd...), perLayer...) {
		check(m.Name)
		if !unit.MatchString(m.Unit) {
			t.Errorf("metric %s: unit %q is outside the driver's alphabet", m.Name, m.Unit)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("metric %s: better = %q", m.Name, m.Better)
		}
		if m.Bound < 0 || m.Bound > 0.25 {
			t.Errorf("metric %s: bound %v outside [0, 0.25]", m.Name, m.Bound)
		}
		hasSetup = hasSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !hasSetup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
}

func smoke(t *testing.T, workload string, seed uint64, traced bool) *report {
	t.Helper()
	rep, err := runWorkload(options{workload: workload, seed: seed, seconds: 0.05, trace: traced, smoke: true, outDir: t.TempDir()})
	if err != nil {
		t.Fatalf("%s seed %d traced=%v: %v", workload, seed, traced, err)
	}
	if !rep.correct() {
		t.Fatalf("%s seed %d traced=%v: %d of %d ops failed: %v", workload, seed, traced, rep.Failed, rep.Attempted, rep.Failures)
	}
	return rep
}

// driverMetrics decodes the line the driver reads.
func driverMetrics(t *testing.T, rep *report) map[string]struct {
	Value float64
	Unit  string
} {
	t.Helper()
	line, err := rep.driverLine()
	if err != nil {
		t.Fatal(err)
	}
	var out struct {
		Correct   bool
		Attempted int
		Failed    int
		Metrics   map[string]struct {
			Value float64
			Unit  string
		}
	}
	if err := json.Unmarshal(line, &out); err != nil {
		t.Fatal(err)
	}
	if !out.Correct || out.Attempted < 1 || out.Failed != 0 {
		t.Errorf("driver line says correct=%v attempted=%d failed=%d", out.Correct, out.Attempted, out.Failed)
	}
	return out.Metrics
}

// Every workload, at smoke scale: the same seed reproduces the same
// work count and the same results, another seed gives other inputs, and
// each pass emits exactly the metrics BENCHMARK.json declares for it.
func TestSmokeWorkloads(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.Name, func(t *testing.T) {
			a, b, other := smoke(t, w.Name, 1, false), smoke(t, w.Name, 1, false), smoke(t, w.Name, 2, false)
			if a.Metrics[cellsPerOp] != b.Metrics[cellsPerOp] || !(a.Metrics[cellsPerOp] > 0) {
				t.Errorf("%s differs between two runs of seed 1, or is not positive: %v vs %v", cellsPerOp, a.Metrics[cellsPerOp], b.Metrics[cellsPerOp])
			}
			if a.Digest != b.Digest {
				t.Errorf("result digest differs between two runs of seed 1: %s vs %s", a.Digest, b.Digest)
			}
			if a.Digest == other.Digest {
				t.Errorf("seeds 1 and 2 gave the same result digest %s: the seed does not reach the inputs", a.Digest)
			}
			if a.Samples < cycle {
				t.Errorf("%d latency samples, want at least one seed cycle", a.Samples)
			}
			got := driverMetrics(t, a)
			if len(got) != len(endToEnd) {
				t.Errorf("untraced pass emitted %d metrics, declared %d", len(got), len(endToEnd))
			}
			for _, m := range endToEnd {
				v, ok := got[m.Name]
				if !ok || v.Unit != m.Unit {
					t.Errorf("untraced pass: metric %s missing or unit %q, want %q", m.Name, v.Unit, m.Unit)
				}
				if !(v.Value > 0) || math.IsInf(v.Value, 0) {
					t.Errorf("untraced pass: %s = %v, want a positive finite number", m.Name, v.Value)
				}
			}

			traced := smoke(t, w.Name, 1, true)
			if traced.Digest != a.Digest {
				t.Errorf("traced pass digest %s, untraced %s", traced.Digest, a.Digest)
			}
			got = driverMetrics(t, traced)
			if len(got) != len(perLayer) {
				t.Errorf("traced pass emitted %d metrics, declared %d", len(got), len(perLayer))
			}
			for _, m := range perLayer {
				v, ok := got[m.Name]
				if !ok || v.Unit != m.Unit {
					t.Errorf("traced pass: metric %s missing or unit %q, want %q", m.Name, v.Unit, m.Unit)
				}
				if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
					t.Errorf("traced pass: %s = %v", m.Name, v.Value)
				}
				service := w.Name == "svc_sliced_n64" || w.Name == "svc_small_n8"
				switch layerOf(m.Name) {
				case "scenario", "checkpoint", "wire", "transport", "server":
					// The engine workloads never cross these layers.
					if !service && v.Value != 0 {
						t.Errorf("%s = %v on an engine workload, want 0", m.Name, v.Value)
					}
				}
			}
			if traced.Metrics["engine.steps_per_op"] <= 0 || traced.Metrics["engine.ns_per_cell"] <= 0 {
				t.Errorf("engine counters missing from the traced pass: %v", traced.Metrics)
			}
		})
	}
}

func TestUnknownWorkload(t *testing.T) {
	if _, err := runWorkload(options{workload: "nope"}); err == nil {
		t.Error("unknown workload accepted")
	}
}

// The arithmetic of the measured phase: throughput counts correct ops
// only, CPU cost is spread over every op attempted.
func TestEndToEndArithmetic(t *testing.T) {
	rep := newReport(options{})
	rep.Attempted = 4
	rep.fail("one op failed")
	lat := []time.Duration{10 * time.Millisecond, 30 * time.Millisecond, 20 * time.Millisecond}
	rep.endToEnd("engine", 1500*time.Millisecond, 2*time.Second, 400*time.Millisecond, lat, 77)
	want := map[string]float64{
		"setup_s": 1.5, "throughput_ops_s": 1.5, "latency_p50_ms": 20, "cpu_ms_per_op": 100,
		"engine.latency_p90_ms": 28, cellsPerOp: 77,
	}
	for name, w := range want {
		if got := rep.Metrics[name]; math.Abs(got-w) > 1e-9 {
			t.Errorf("%s = %v, want %v", name, got, w)
		}
	}
	if !(rep.Metrics[peakRSS] > 0) {
		t.Errorf("%s = %v, want the process's VmHWM", peakRSS, rep.Metrics[peakRSS])
	}
	if rep.Samples != 3 || rep.MeasuredS != 2 || rep.correct() {
		t.Errorf("samples %d, measured %v s, correct %v: want 3, 2, false", rep.Samples, rep.MeasuredS, rep.correct())
	}
}
