package engine

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// pool is the engine's persistent worker pool: the evaluator of one time
// step fans its activation tasks out over long-lived helper goroutines,
// started lazily by the first step that fans out. What decides whether
// that pays is the hand-off. A helper parked on a channel is a futex
// round trip away — a third of an E5 step, which left it 34 % of the
// tasks and the pool at 1.0×. So a helper that has drained a job stays runnable for
// handOffBound, polling its own mailbox and yielding between polls, and
// the next step's submitter hands it the job with one CAS; past the bound
// it parks on the channel. Participants claim chunks of neighbouring
// tasks from one atomic index, and every task writes its own node's
// state, so results are bit-identical to sequential evaluation.
type pool struct {
	helpers int // helper goroutine count (excludes the submitting goroutine)
	started atomic.Bool
	work    chan *job // parked helpers receive here
	box     []mailbox // box[id-1] is helper id's
	// mu serialises close against in-flight submissions: do holds the
	// read side while it enlists helpers, so a concurrent Close cannot
	// close the channel under a pending send (Engine is documented as safe
	// for concurrent use, which must include one goroutine tearing it down
	// while another still runs — the racing Run degrades to inline
	// execution instead of panicking).
	mu     sync.RWMutex
	closed atomic.Bool
	// fanouts counts jobs handed to helpers, hot the hand-offs among them
	// that found a polling helper; tests and benchmarks read them.
	fanouts, hot atomic.Int64
}

// handOffBound is how long a helper polls for the next job before it
// parks, and a submitter for its stragglers. It is several times the
// serial work between two fan-outs of an E5 run (n = 512 on 2 CPUs:
// ≈ 45–53 µs of fold, put, certification and the next step's active set
// and fan-out decision): at 100 µs 740–751 of a run's 757 fan-outs found
// the helper polling, at 300 µs 753–754. A constant, because that gap is
// the engine's own code, not the deployment's; a paused or idle engine
// burns one bound per helper, then nothing.
const handOffBound = 300 * time.Microsecond

// mailbox is one helper's hand-off slot, on its own cache line: idle while
// the helper polls it, a job once a submitter's CAS filled it (until the
// helper is done with that job), nil while the helper is parked.
type mailbox struct {
	p atomic.Pointer[job]
	_ [56]byte
}

var idle = new(job)

// job is one step's worth of tasks, run through the tasker that owns it.
// Worker ids 1..helpers are the pool's helpers and id 0 is the submitting
// goroutine, so per-worker scratch needs helpers+1 slots. A job is idle
// again once do returns, so its owner reuses it step after step.
type job struct {
	t        tasker
	n, chunk int
	next     atomic.Int64
	// pending counts enlisted helpers yet to check in; the last one then
	// signals done, which a submitter that stopped polling parks on. Each
	// fan-out adds one to done and removes one, possibly after do returned,
	// so done reaches zero only when every fan-out so far has checked in.
	pending atomic.Int32
	done    sync.WaitGroup
	// fault is the first panic a participant raised (a source's β breaking
	// its contract); do re-raises it on the submitting goroutine once
	// every participant is done, so it reaches the run's caller and not a
	// helper's stack.
	fault atomic.Pointer[panicked]
}

// panicked is a recovered panic value.
type panicked struct{ v any }

// tasker runs task idx on behalf of worker id.
type tasker interface{ runIdx(idx, worker int) }

// drain claims chunks of tasks until none are left: one atomic per chunk,
// ≈ 8 claims per participant per job, so neighbouring rows — and their
// neighbouring change bitsets — stay on one worker.
func (j *job) drain(worker int) {
	for {
		hi := int(j.next.Add(int64(j.chunk)))
		for idx := hi - j.chunk; idx < min(hi, j.n); idx++ {
			j.t.runIdx(idx, worker)
		}
		if hi >= j.n {
			return
		}
	}
}

// run is drain for a participant of a fanned-out job: a panic ends the
// participant's share, and the job's fault records it.
func (j *job) run(worker int) {
	defer func() {
		if v := recover(); v != nil {
			j.fault.CompareAndSwap(nil, &panicked{v})
		}
	}()
	j.drain(worker)
}

func newPool(helpers int) *pool {
	// The buffer holds one send per helper for each of a few concurrent
	// runs, so a submitter seldom blocks on helpers busy elsewhere.
	return &pool{helpers: helpers, work: make(chan *job, 4*(helpers+1)), box: make([]mailbox, helpers)}
}

// helper is helper id's life: park on the channel, and after each job
// poll the mailbox for the next before parking again. Close (or the GC
// cleanup of a dropped engine — helpers reference only the pool, never
// the engine) ends it by closing the channel.
func (p *pool) helper(id int) {
	box := &p.box[id-1].p
	for j := range p.work {
		for j != nil {
			j.run(id)
			if j.pending.Add(-1) == 0 {
				j.done.Done()
			}
			box.Store(idle)
			// A job queued by a run that found this helper busy is not kept
			// waiting behind a run that keeps it hot.
			for start := time.Now(); box.Load() == idle && len(p.work) == 0 && time.Since(start) < handOffBound; {
				runtime.Gosched() // any runnable goroutine takes the P
			}
			// The same CAS that fills the mailbox decides the park/fill race.
			j = nil
			if !box.CompareAndSwap(idle, nil) {
				j = box.Load()
			}
		}
	}
}

// do runs t's tasks [0, n) through j, fanning out across up to want-1
// helpers while the calling goroutine works too (as worker 0). It returns
// when every task has finished, and panics if a task did.
func (p *pool) do(j *job, want, n int, t tasker) {
	helpers := min(want-1, p.helpers, n-1)
	j.t, j.n, j.chunk = t, n, max(1, n/(8*(helpers+1)))
	j.next.Store(0)
	j.fault.Store(nil)
	p.mu.RLock()
	if helpers < 1 || p.closed.Load() {
		// Nobody to enlist, or closed under us: run everything on the
		// submitting goroutine.
		p.mu.RUnlock()
		j.drain(0)
		return
	}
	if p.started.CompareAndSwap(false, true) {
		for id := 1; id <= p.helpers; id++ {
			go p.helper(id)
		}
	}
	p.fanouts.Add(1)
	j.pending.Store(int32(helpers))
	j.done.Add(1)
	for b := 0; b < len(p.box) && helpers > 0; b++ {
		if p.box[b].p.CompareAndSwap(idle, j) {
			p.hot.Add(1)
			helpers--
		}
	}
	for ; helpers > 0; helpers-- {
		p.work <- j
	}
	p.mu.RUnlock()
	j.run(0)
	for start := time.Now(); j.pending.Load() != 0; runtime.Gosched() {
		if time.Since(start) > handOffBound {
			j.done.Wait()
			break
		}
	}
	if f := j.fault.Load(); f != nil {
		panic(f.v)
	}
}

// close stops the helpers. Safe to call more than once, concurrently with
// the GC cleanup path, and concurrently with in-flight do calls; do checks
// closed under mu, so helpers are never started after it.
func (p *pool) close() {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed.CompareAndSwap(false, true) {
		close(p.work)
	}
}
