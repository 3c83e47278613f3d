package dist

import "repro/internal/metrics"

// Supervisor instrumentation. The per-run atomics in runStats stay the
// source of truth for Outcome.Stats; these process-wide counters
// accumulate the same events across every run so an operator watching
// /metrics sees supervisor activity without waiting for outcomes.
var (
	mHeartbeatMisses = metrics.Default.Counter("dist_heartbeat_misses_total",
		"Heartbeat deadlines exceeded — the supervisor declared the router failed.")
	mCrashes = metrics.Default.Counter("dist_crashes_total",
		"Router failures detected by the supervisor (silent deaths and wedged routers).")
	mRecoveries = metrics.Default.Counter("dist_recoveries_total",
		"Routers respawned from a snapshot, by AutoHeal or explicit RecoverNode.")
	mRunQueueDrops = metrics.Default.Counter("dist_queue_drops_total",
		"Messages the run's transport dropped on full receive buffers, summed at run end.")
)
