package engine

import (
	"slices"

	"repro/internal/core"
	"repro/internal/matrix"
)

// Pointwise exposes the adapter that serves Batched from a plain Source,
// so the external tests can hold it to the same laws as the lazy sources.
func Pointwise(src Source) Batched { return &pointwise{src} }

// NewSharded is New with the fan-out threshold (minParallelOps) lowered
// to 0, so a test's tiny network fans every step's rows out across the
// workers the way a large one does.
func NewSharded[R any](alg core.Algebra[R], adj *matrix.Adjacency[R], cfg Config) *Engine[R] {
	e := New(alg, adj, cfg)
	e.minOps = 0
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

func (r *run[R, Row]) builtTasks() int { return len(r.actives) }

// LastStepTasks is how many tasks the stepper's last step that was not
// an event step ran, on the pool or inline: one per activation, so
// ΔRowsComputed + ΔRowsSkipped of that step.
func LastStepTasks[R any](s *Stepper[R]) int {
	return s.run.(interface{ builtTasks() int }).builtTasks()
}

// Bookkeeping is the stepper's change tracking and certification as of
// its last completed step, copied: the last-changed matrix, the
// per-node last-recomputation times, the β each node last read, the
// nodes certified in the current generation (nil for a run that does not
// certify) and the last step the state changed.
type Bookkeeping struct {
	Ver, LastComp, LastRead []int32
	Certified               []bool
	LastChange              int
}

// ReadBookkeeping reads a stepper's Bookkeeping.
func ReadBookkeeping[R any](s *Stepper[R]) Bookkeeping {
	return s.run.(interface{ bookkeeping() Bookkeeping }).bookkeeping()
}

func (r *run[R, Row]) bookkeeping() Bookkeeping {
	b := Bookkeeping{
		Ver:        slices.Clone(r.inc.ver),
		LastComp:   slices.Clone(r.lastComp),
		LastRead:   slices.Clone(r.lastRead),
		LastChange: r.lastChange,
	}
	if r.doTerm {
		b.Certified = make([]bool, r.n)
		for i := range b.Certified {
			b.Certified[i] = r.certStmp[i] == r.certGen
		}
	}
	return b
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

// MemoKeys reports the stepper's edge-output memo: how many cells its
// lanes hold (0 when the run keeps none) and how many keys are set.
func MemoKeys[R any](s *Stepper[R]) (cells, set int) {
	return s.run.(interface{ memoKeys() (int, int) }).memoKeys()
}

func (r *run[R, Row]) memoKeys() (cells, set int) {
	o, ok := any(r.ops).(colOps[R])
	if !ok || !o.cs.memo {
		return 0, 0
	}
	for _, m := range r.memos {
		for x := 0; x < len(m.ID); x += 2 {
			if !m.ID[x].IsInvalid() {
				set++
			}
		}
		cells += len(m.ID) / 2
	}
	return cells, set
}
