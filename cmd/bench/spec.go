package main

// The benchmark's declared surface: the four workloads, the end-to-end
// metrics with their bounds, and the per-layer metrics of the traced
// pass. BENCHMARK.json at the repository root states the same lists for
// the driver; TestSpecMatchesBenchmarkJSON keeps the two identical.

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

type workloadSpec struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

// benchmarkFile is BENCHMARK.json's shape.
type benchmarkFile struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []workloadSpec `json:"workloads"`
	EndToEnd   []metricSpec   `json:"end_to_end"`
	PerLayer   []metricSpec   `json:"per_layer"`
}

// runSeconds is the measured duration the driver asks for: 92 runs of
// it, with set-up and engine_dv_n512's op floor, fit the driver's 3420 s.
const runSeconds = 24

// declaredFile is the BENCHMARK.json this source declares.
func declaredFile() benchmarkFile {
	return benchmarkFile{
		Command:    []string{"go", "run", "./cmd/bench"},
		Paths:      []string{"cmd/bench", "bench"},
		RunSeconds: runSeconds,
		Workloads:  workloads,
		EndToEnd:   endToEnd,
		PerLayer:   perLayer,
	}
}

// cycle is the number of distinct per-op seeds a workload rotates
// through. Every caller runs whole cycles and engine.cells_per_op is the
// mean over one, so the count repeats exactly whatever the measured
// duration was.
const cycle = 8

var workloads = []workloadSpec{
	{"engine_dv_n512", "E5 hop-count on ring-512+chords, one caller looping eng.Run: the scalar columnar kernel and dirty-column resolution do all the work; no scenario, wire, transport or server"},
	{"engine_policy_n128", "interned Section-7 policy algebra on ring-128+chords, 8 programs drawn over the edges: 2-word cells, the condition interpreter and path interning dominate; a scalar-kernel change must leave it flat"},
	{"svc_sliced_n64", "2 closed-loop clients through the in-process daemon, ring-64 horizon-4096 with a late event: 64 snapshot/restore quanta per request, the slicing cost a run stepper would remove"},
	{"svc_small_n8", "2 closed-loop clients submitting the ring-8 horizon-300 loadgen scenario: per-request fixed cost (parse, build, frames, loopback, admission) is half the latency, the kernel the other half"},
}

// The gated metrics. The issue asked for a bound of 0.10; on this
// two-core VM the median of ten runs of the same code moved by up to 19 %
// within an afternoon (bench/README.md has the rounds), and the driver
// refuses a benchmark whose own two rounds disagree by more than the
// bound, so the timings carry the 0.25 the driver allows. The issue's
// other three end-to-end metrics could not hold a bound and are per-layer
// metrics below: latency_p90_ms (engine./server.), peak_rss_mb
// (process.) and cells_per_op (engine.), which is exact for one seed —
// -repeat fails on any difference — but moves from seed to seed.
var endToEnd = []metricSpec{
	{"setup_s", "s", "lower", 0.25},
	{"throughput_ops_s", "ops/s", "higher", 0.25},
	{"latency_p50_ms", "ms", "lower", 0.25},
	{"cpu_ms_per_op", "ms", "lower", 0.25},
}

// Per-layer metrics the untraced pass also measures, over its longer
// run, and prints beside the gated ones.
const (
	cellsPerOp = "engine.cells_per_op"
	peakRSS    = "process.peak_rss_mb"
)

var perLayer = []metricSpec{
	{Name: cellsPerOp, Unit: "count", Better: "lower"},
	{Name: "engine.steps_per_op", Unit: "count", Better: "lower"},
	{Name: "engine.rows_computed_per_op", Unit: "count", Better: "lower"},
	{Name: "engine.rows_skipped_per_op", Unit: "count", Better: "higher"},
	{Name: "engine.skip_ratio", Unit: "ratio", Better: "higher"},
	{Name: "engine.ns_per_cell", Unit: "ns", Better: "lower"},
	{Name: "engine.cells_per_s", Unit: "1/s", Better: "higher"},
	{Name: "engine.allocs_per_op", Unit: "count", Better: "lower"},
	{Name: "engine.alloc_kb_per_op", Unit: "KB", Better: "lower"},
	{Name: "engine.run_ms_workers1", Unit: "ms", Better: "lower"},
	{Name: "engine.parallel_speedup", Unit: "ratio", Better: "higher"},
	{Name: "engine.snapshot_restore_overhead_ms", Unit: "ms", Better: "lower"},
	{Name: "engine.latency_p90_ms", Unit: "ms", Better: "lower"},
	{Name: "engine.latency_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "engine.latency_max_ms", Unit: "ms", Better: "lower"},
	{Name: "matrix.dense_ns_per_cell", Unit: "ns", Better: "lower"},
	{Name: "matrix.engine_overhead_ratio", Unit: "ratio", Better: "lower"},
	{Name: "scenario.parse_us", Unit: "us", Better: "lower"},
	{Name: "scenario.build_us", Unit: "us", Better: "lower"},
	{Name: "scenario.quanta_per_op", Unit: "count", Better: "lower"},
	{Name: "scenario.advance_ms_per_quantum", Unit: "ms", Better: "lower"},
	{Name: "scenario.sliced_run_ms", Unit: "ms", Better: "lower"},
	{Name: "scenario.unsliced_run_ms", Unit: "ms", Better: "lower"},
	{Name: "scenario.slicing_overhead_ms", Unit: "ms", Better: "lower"},
	{Name: "scenario.slicing_overhead_share", Unit: "ratio", Better: "lower"},
	{Name: "scenario.final_hash_us", Unit: "us", Better: "lower"},
	{Name: "checkpoint.encode_us", Unit: "us", Better: "lower"},
	{Name: "checkpoint.bytes", Unit: "B", Better: "lower"},
	{Name: "checkpoint.decode_us", Unit: "us", Better: "lower"},
	{Name: "checkpoint.resume_us", Unit: "us", Better: "lower"},
	{Name: "wire.encode_submit_ns", Unit: "ns", Better: "lower"},
	{Name: "wire.decode_submit_ns", Unit: "ns", Better: "lower"},
	{Name: "wire.encode_result_ns", Unit: "ns", Better: "lower"},
	{Name: "wire.decode_result_ns", Unit: "ns", Better: "lower"},
	{Name: "wire.encode_status_ns", Unit: "ns", Better: "lower"},
	{Name: "wire.submit_bytes", Unit: "B", Better: "lower"},
	{Name: "wire.result_bytes", Unit: "B", Better: "lower"},
	{Name: "transport.dial_us", Unit: "us", Better: "lower"},
	{Name: "transport.rtt_us", Unit: "us", Better: "lower"},
	{Name: "transport.frames_per_op", Unit: "count", Better: "lower"},
	{Name: "transport.bytes_per_op", Unit: "B", Better: "lower"},
	{Name: "server.admit_ms", Unit: "ms", Better: "lower"},
	{Name: "server.await_ms", Unit: "ms", Better: "lower"},
	{Name: "server.quanta_per_op", Unit: "count", Better: "lower"},
	{Name: "server.quantum_busy_ms_per_op", Unit: "ms", Better: "lower"},
	{Name: "server.preemptions_per_op", Unit: "count", Better: "lower"},
	{Name: "server.sheds_per_op", Unit: "count", Better: "lower"},
	{Name: "server.residual_ms", Unit: "ms", Better: "lower"},
	{Name: "server.latency_p90_ms", Unit: "ms", Better: "lower"},
	{Name: "server.latency_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "server.latency_max_ms", Unit: "ms", Better: "lower"},
	{Name: "server.openloop_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "server.openloop_p90_ms", Unit: "ms", Better: "lower"},
	{Name: "server.openloop_lateness_p90_ms", Unit: "ms", Better: "lower"},
	{Name: peakRSS, Unit: "MB", Better: "lower"},
	{Name: "trace.coverage", Unit: "ratio", Better: "higher"},
	{Name: "trace.overhead_share", Unit: "ratio", Better: "lower"},
}
