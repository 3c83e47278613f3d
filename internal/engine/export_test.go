package engine

import (
	"repro/internal/core"
	"repro/internal/matrix"
)

// Pointwise exposes the adapter that serves Batched from a plain Source,
// so the external tests can hold it to the same laws as the lazy sources.
func Pointwise(src Source) Batched { return &pointwise{src} }

// NewSharded is New with the column-shard threshold (shardFromN) lowered
// to 1 and the fan-out threshold (minParallelOps) to 0, so a test's tiny
// network fans every step out and splits every row across the workers
// the way a large one does.
func NewSharded[R any](alg core.Algebra[R], adj *matrix.Adjacency[R], cfg Config) *Engine[R] {
	e := New(alg, adj, cfg)
	e.shardFrom, e.minOps = 1, 0
	return e
}

// PoolCounters reads the engine's pool: whether its helper goroutines
// were ever started, how many steps it fanned out, and how many helper
// hand-offs found the helper still polling (no channel, no futex).
func PoolCounters[R any](e *Engine[R]) (started bool, fanouts, hot int64) {
	return e.pool.started.Load(), e.pool.fanouts.Load(), e.pool.hot.Load()
}

// PoolPolling counts the helpers polling their mailbox right now: neither
// parked on the channel nor busy with a job.
func PoolPolling[R any](e *Engine[R]) (polling int) {
	for b := range e.pool.box {
		if e.pool.box[b].p.Load() == idle {
			polling++
		}
	}
	return polling
}

func (r *run[R, Row]) builtTasks() int { return len(r.tasks) }

// LastStepTasks is how many row tasks the stepper's last computing step
// built: rows × column shards.
func LastStepTasks[R any](s *Stepper[R]) int {
	return s.run.(interface{ builtTasks() int }).builtTasks()
}

// RunResident is e.Run that also reports how many states the run held at
// its end: the ring's occupancy.
func RunResident[R any](e *Engine[R], start *matrix.State[R], src Source) (*Result[R], int) {
	st, err := e.Start(start, src, nil)
	if err != nil {
		panic(err)
	}
	st.Step(src.Horizon())
	resident := st.run.(interface{ resident() int }).resident()
	return st.Result(), resident
}

func (r *run[R, Row]) resident() int {
	n := 0
	for _, s := range r.ring {
		if s != nil {
			n++
		}
	}
	return n
}
