package engine

import (
	"sync"
	"sync/atomic"
)

// pool is the engine's persistent worker pool. The evaluator of one time
// step fans its row tasks out over long-lived helper goroutines instead of
// spawning a fresh set per step: on convergence-tail steps with a handful
// of active rows, goroutine create/join used to dominate the step cost.
//
// Helpers are started lazily on the first parallel step and parked on a
// channel between steps. Work distribution is unchanged from the
// spawn-per-step design — chunked atomic work-stealing over a shared task
// index, every task writing a disjoint span, so results stay bit-identical
// to sequential evaluation.
type pool struct {
	helpers int // helper goroutine count (excludes the submitting goroutine)
	once    sync.Once
	work    chan *job
	// mu serialises close against in-flight submissions: do holds the
	// read side while it enqueues, so a concurrent Close cannot close the
	// channel under a pending send (Engine is documented as safe for
	// concurrent use, which must include one goroutine tearing it down
	// while another still runs — the racing Run degrades to inline
	// execution instead of panicking).
	mu     sync.RWMutex
	closed atomic.Bool
}

// job is one step's worth of tasks, run through the tasker that owns it.
// Worker ids 1..helpers are the pool's helpers and id 0 is the submitting
// goroutine, so per-worker scratch needs helpers+1 slots. A job is idle
// again once do returns, so its owner reuses it step after step.
type job struct {
	t    tasker
	n    int
	next atomic.Int64
	wg   sync.WaitGroup
}

// tasker runs task idx on behalf of worker id.
type tasker interface{ runIdx(idx, worker int) }

func (j *job) drain(worker int) {
	for {
		idx := int(j.next.Add(1)) - 1
		if idx >= j.n {
			return
		}
		j.t.runIdx(idx, worker)
	}
}

func newPool(helpers int) *pool {
	return &pool{helpers: helpers, work: make(chan *job, 4*(helpers+1))}
}

// start launches the helpers on first use. The cleanup tears them down if
// the owning engine is dropped without Close — helpers reference only the
// channel, so they never keep the engine itself alive.
func (p *pool) start() {
	p.once.Do(func() {
		for id := 1; id <= p.helpers; id++ {
			go func(id int) {
				for j := range p.work {
					j.drain(id)
					j.wg.Done()
				}
			}(id)
		}
	})
}

// do runs t's tasks [0, n) through j, fanning out across up to want-1
// helpers while the calling goroutine works too (as worker 0). It returns
// when every task has finished.
func (p *pool) do(j *job, want, n int, t tasker) {
	helpers := want - 1
	if helpers > p.helpers {
		helpers = p.helpers
	}
	if helpers > n-1 {
		helpers = n - 1
	}
	j.t, j.n = t, n
	j.next.Store(0)
	p.mu.RLock()
	if p.closed.Load() {
		// Closed under us: run everything on the submitting goroutine.
		p.mu.RUnlock()
		j.drain(0)
		return
	}
	p.start()
	j.wg.Add(helpers)
	for h := 0; h < helpers; h++ {
		p.work <- j
	}
	p.mu.RUnlock()
	j.drain(0)
	j.wg.Wait()
}

// close stops the helpers. Safe to call more than once, concurrently with
// the GC cleanup path, and concurrently with in-flight do calls.
func (p *pool) close() {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed.CompareAndSwap(false, true) {
		p.start() // ensure once is spent so helpers aren't started after close
		close(p.work)
	}
}
