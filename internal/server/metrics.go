package server

import (
	"repro/internal/engine"
	"repro/internal/metrics"
)

// srvMetrics is the server's instrument set, resolved once at New from
// the configured registry so the hot paths touch pre-bound series, not
// the registry map. Registration is idempotent, so multiple servers on
// one registry (tests, restarts) share families; per-tenant series are
// bound lazily because the tenant set is dynamic.
type srvMetrics struct {
	reg *metrics.Registry

	admissions  *metrics.CounterVec // by tenant
	sheds       *metrics.CounterVec // retriable rejects, by reason
	queueDepth  *metrics.Gauge
	inflight    *metrics.GaugeVec // by tenant
	vtimeLag    *metrics.GaugeVec // by tenant: vtime - vclock
	preemptions *metrics.Counter
	quantumSec  *metrics.Histogram
	readmits    *metrics.Counter
	finished    *metrics.CounterVec // by outcome: ok | error
}

func newSrvMetrics(reg *metrics.Registry) *srvMetrics {
	return &srvMetrics{
		reg: reg,
		admissions: reg.CounterVec("dbfsimd_admissions_total",
			"Runs admitted past both admission gates and enqueued.", "tenant"),
		sheds: reg.CounterVec("dbfsimd_sheds_total",
			"Submissions shed with a retriable error, by reason.", "reason"),
		queueDepth: reg.Gauge("dbfsimd_queue_depth",
			"Admitted runs waiting for a worker, across all tenants."),
		inflight: reg.GaugeVec("dbfsimd_tenant_inflight",
			"Admitted, unfinished runs (queued, running or preempted).", "tenant"),
		vtimeLag: reg.GaugeVec("dbfsimd_tenant_vtime_lag",
			"Tenant virtual time minus the global virtual clock; positive means ahead of fair share.", "tenant"),
		preemptions: reg.Counter("dbfsimd_preemptions_total",
			"Quanta that ended with the run paused and re-queued rather than finished."),
		quantumSec: reg.Histogram("dbfsimd_quantum_seconds",
			"Wall-clock duration of one scheduling quantum (engine advance plus any configured stall).",
			metrics.DurationBuckets()),
		readmits: reg.Counter("dbfsimd_readmissions_total",
			"Spooled runs re-admitted after a restart and replayed from step 0."),
		finished: reg.CounterVec("dbfsimd_runs_finished_total",
			"Completed runs, by outcome.", "outcome"),
	}
}

// shedReason maps a reject site to its dbfsimd_sheds_total label.
const (
	shedDraining = "draining"
	shedTenants  = "tenant_table_full"
	shedInFlight = "inflight_cap"
)

// ObserveEngineRuns installs a process-wide engine run observer that
// exports every completed run's Progress as engine_* counters on reg. The
// hook is one atomic load plus a handful of atomic adds per *run* —
// nothing per cell or per step, so the engine's warm-path allocation
// and throughput profile is untouched. Skipped rows are not exported:
// counting a jumped interlude's activations is work the request path
// does not do. Call once at daemon startup.
func ObserveEngineRuns(reg *metrics.Registry) {
	runs := reg.Counter("engine_runs_total",
		"Engine runs completed (horizon reached or convergence certified).")
	converged := reg.Counter("engine_runs_converged_total",
		"Engine runs that certified convergence before their horizon.")
	steps := reg.Counter("engine_steps_total",
		"Engine time steps evaluated, summed over completed runs.")
	cells := reg.Counter("engine_cells_computed_total",
		"Individual σ-cell evaluations, summed over completed runs.")
	rows := reg.Counter("engine_rows_computed_total",
		"σ-row recomputations, summed over completed runs.")
	engine.ObserveRuns(func(p engine.Progress) {
		runs.Inc()
		if p.ConvergedAt >= 0 {
			converged.Inc()
		}
		steps.Add(float64(p.Steps))
		cells.Add(float64(p.CellsComputed))
		rows.Add(float64(p.RowsComputed))
	})
}
