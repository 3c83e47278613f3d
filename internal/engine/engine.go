// Package engine is the unified simulation core behind both the
// synchronous iteration σ and the asynchronous iteration δ of the paper.
// One evaluator serves both: σ is δ under the all-active Synchronous
// source, and every other schedule — materialised (*schedule.Schedule) or
// lazy — plugs into the same loop.
//
// Five properties distinguish it from the literal evaluator it replaces
// (now async.RunReference):
//
//   - Copy-on-write rows. A time step shares the row storage of every
//     node that did not activate, so a step with a active nodes costs
//     O(a·n + n) memory instead of the O(n²) full-state clone.
//   - Bounded history. β can only reach the source's MaxLookback steps
//     into the past, so only that window of states is retained, in a ring
//     whose evicted rows are recycled; steady-state evaluation allocates
//     (almost) nothing. A whole history is the literal evaluator's to
//     keep (async.RunReference).
//   - Sharded activations. The activations of one step are independent
//     (δ, Section 3.1: node i ∈ α(t) reads β(t, i, k) and recomputes its
//     own row), so a step that costs more than the hand-off fans them out,
//     one task per activation — its β draws, skip test, table resolution
//     and kernel — across a persistent worker pool whose helpers stay hot
//     between one step's fan-out and the next (pool.go). Every task writes
//     only its own node's state; the fold of the step's changes, the
//     history ring and certification stay serial, so the result is
//     bit-identical to the sequential path.
//   - Change-driven evaluation. Real asynchronous protocols
//     process received updates; they do not periodically recompute
//     everything. The engine tracks, per node and destination, when each
//     route last changed, skips an activation outright when none of the
//     β-resolved inputs changed since the node's last recomputation, and
//     otherwise recomputes only the affected destination columns — one
//     ascending selection of them, nil when every column is — reusing
//     the previous row copy-on-write for the rest. On convergence-tail
//     workloads this turns O(T·n²) grinding into output-sensitive cost,
//     and — exactly when the source promises fairness (Fair) — lets the
//     run return its fixed point as soon as convergence is certified
//     instead of marching to the horizon.
//   - Columnar evaluation. When the algebra packs its routes into
//     fixed-width cells (core.Columnar) and every edge of the topology
//     compiles, the run stores rows as struct-of-arrays lanes and applies
//     each edge to a whole dirty column through a compiled kernel — no
//     interface calls in the fold, word compares for change tracking. The
//     evaluation loop itself is representation-generic (run[R, Row] over
//     a rowOps capability whose one row step takes the loop's selection),
//     so the columnar path shares every line of the scheduling, skip,
//     dirty-selection and certification logic with the interface path,
//     which serves every other run (algebras that do not pack, timelines).
//
// The source decides everything else: a run's history ring is its
// MaxLookback, and it may stop early iff it is Fair. The only knob is the
// pool size (Config).
package engine

import (
	"fmt"
	"runtime"
	"slices"
	"sync"

	"repro/internal/core"
	"repro/internal/matrix"
)

// minParallelOps is the per-step work below which the engine stays
// sequential: a hot hand-off costs microseconds, a parked helper a futex
// round trip, and a step this small (a ring-64 service request never
// exceeds it) is done before either pays. A step is decided before any of
// its activations runs its skip test, so its work is estimated: Σ n·(deg+1)
// over the activations, what the kernels would walk at most, scaled by
// the share of its activations the run's last step recomputed.
const minParallelOps = 1 << 14

// Config tunes an Engine. The zero value is the right default everywhere.
type Config struct {
	// Workers sizes the row-recomputation pool. 0 = GOMAXPROCS, 1 =
	// sequential.
	Workers int
}

// Engine evaluates δ (and, through the Synchronous source, σ) over one
// algebra and topology. It is semantically stateless between runs — no
// result ever depends on a prior run — and safe for concurrent use by
// separate goroutines. Run scratch is not the engine's: a finished run
// parks it on the process-wide spare list (spares), so it outlives Close
// and serves the next engine of the same shape. Engines own a
// lazily-started persistent worker pool and the compilations below;
// Close releases them early, and a GC cleanup handles engines that are
// simply dropped.
type Engine[R any] struct {
	alg     core.Algebra[R]
	adj     *matrix.Adjacency[R]
	workers int
	minOps  int // minParallelOps; tests lower it to fan tiny steps out
	pool    *pool
	cleanup runtime.Cleanup
	// mu guards the retained cross-run state below: colSup is the
	// compiled columnar kernel table, reused until the adjacency's
	// generation moves. closed stops it from being repopulated after
	// Close.
	mu       sync.Mutex
	colSup   *colSupport[R]
	colGen   uint64
	colTried bool
	closed   bool
}

// New builds an engine for the given algebra and topology.
func New[R any](alg core.Algebra[R], adj *matrix.Adjacency[R], cfg Config) *Engine[R] {
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	e := &Engine[R]{
		alg: alg, adj: adj,
		workers: workers, minOps: minParallelOps,
		pool: newPool(workers - 1),
	}
	e.cleanup = runtime.AddCleanup(e, func(p *pool) { p.close() }, e.pool)
	return e
}

// Close stops the engine's worker pool. Optional — a dropped engine's
// pool is reclaimed by the garbage collector — but deterministic teardown
// matters in tests and long-lived processes that churn engines.
func (e *Engine[R]) Close() {
	e.cleanup.Stop()
	e.pool.close()
	e.mu.Lock()
	e.colSup, e.closed = nil, true
	e.mu.Unlock()
}

// Run evaluates δ from start over the source's schedule with the default
// configuration.
func Run[R any](alg core.Algebra[R], adj *matrix.Adjacency[R], start *matrix.State[R], src Source) *Result[R] {
	return New(alg, adj, Config{}).Run(start, src)
}

// slabRows is how many rows a slab carves at once; batching keeps the
// allocator out of the hot loop even before recycling warms up.
const slabRows = 16

// rowSlab carves rows of one representation out of large blocks; the
// leftover backing persists across pooled runs.
type rowSlab[Row any] interface {
	carve(n int) Row
}

// genSlab is the []R row slab.
type genSlab[R any] struct{ buf []R }

func (s *genSlab[R]) carve(n int) []R {
	if len(s.buf) < n {
		s.buf = make([]R, slabRows*n)
	}
	row := s.buf[:n:n]
	s.buf = s.buf[n:]
	return row
}

// rowOps is the row-representation capability the generic evaluation
// loop runs through: everything the loop cannot do without knowing
// whether a row is a []R slice or a pair of packed lanes. genOps is the
// interface path; colOps (columnar.go) the packed one. Both are
// bit-identical by contract — the loop, the skip logic, the dirty
// selection, the dense/sparse decision, the stats and the certification
// are the loop's, and never see the difference.
type rowOps[R, Row any] interface {
	// geom is the row geometry beyond n that pooled scratch must match
	// (the packed cell layout; 0 for []R rows).
	geom() int
	// newSlab returns a fresh row arena; prepare sizes any
	// representation-specific per-run scratch.
	newSlab() rowSlab[Row]
	prepare(r *run[R, Row], n int)
	// encodeRow writes a reference row into a freshly allocated Row.
	encodeRow(dst Row, src []R)
	// materialise converts a ring state into a standalone state.
	materialise(s []Row) *matrix.State[R]
	// sigma computes node i's row of the step in flight (r.cur[i]) from
	// its β-resolved tables (r.tabs[i]) and its previous row (r.prev[i])
	// on behalf of worker, recording the columns that moved in r.chg[i],
	// and returns the number of columns computed. sel is the kernels'
	// selection (matrix.SigmaRowChanged): nil for the whole row, else the
	// ascending dirty columns, every other one copied from prev.
	sigma(r *run[R, Row], i int, sel []int32, worker int) (cells int)
}

// run is the mutable state of one evaluation, generic over the row
// representation. Run values are pooled (spares) and every slice below
// is retained across runs, so a warm run allocates nothing on the hot
// path. A ring state — one time step's global state — is a []Row of n
// rows, shared with neighbouring states for every node that did not
// activate in between, and immutable once published.
type run[R, Row any] struct {
	shape    spareShape // what the scratch below was sized for; fixed for life
	ops      rowOps[R, Row]
	window   int // the source's MaxLookback: the ring holds window+1 states
	ring     [][]Row
	freeRows []Row
	freeHdrs [][]Row
	slab     rowSlab[Row]
	hdrSlab  []Row
	stats    Stats // RowsSkipped short of what owed still holds
	owed     owed  // jumped steps not yet counted into stats

	// change-tracking bookkeeping
	inc      *incShared
	lastComp []int32         // time of node's last recomputation, −1 = never
	lastRead []int32         // lastRead[i·n+k] = β used at i's last recomputation
	chg      []matrix.Bitset // per-node changed-destination scratch

	// per-run working storage, retained across runs when pooled
	nbr      []int32 // flat in-neighbour lists: node i's are nbr[nbrOff[i]:nbrOff[i+1]]
	nbrOff   []int32
	lo       []int32   // per-edge unchanged-since thresholds, indexed like nbr
	tabs     [][]Row   // per-node β-resolved table scratch
	repl     [][]int32 // per ring slot: the nodes whose row that state's step replaced
	job      job       // the parallel step in flight; reused, one per run
	certStmp []int32
	memo     core.ColMemo   // columnar edge-output memo lanes (columnar.go)
	memos    []core.ColMemo // their per-edge views

	// The step in flight, as its activations read it.
	now     int
	cur     []Row   // the state being built at now
	actives []int   // α(now)
	minB    []int32 // per activation: its least β, for certification
	fanned  bool    // the activations run on the pool, each on its row in taken
	taken   []Row
	// The last step with activations: rows it recomputed, of lastActs
	// activations. The next fan-out decision weighs its activations by it.
	lastRows, lastActs int

	// The evaluation in progress — the loop's position and carried state,
	// kept on the run so that pausing is a return from step and resuming
	// a call to it.
	e          *Engine[R]
	sched      Batched   // the source's whole-step form, or &pw over a plain Source
	pw         pointwise // here, not boxed, so adapting a source allocates nothing
	n, T, t    int       // node count, horizon, last completed step
	doTerm     bool
	fairP      int
	events     []TimelineEvent[R] // the timeline to play; events[:nextEv] have fired
	nextEv     int
	marks      []*matrix.State[R]
	prev       []Row // the state at t (at now−1 while a step is in flight)
	lastChange int
	certGen    int32
	nCert      int
	converged  bool // convergence certified: the run stopped before the horizon
}

func (r *run[R, Row]) newRow(n int) Row {
	if l := len(r.freeRows); l > 0 {
		row := r.freeRows[l-1]
		r.freeRows = r.freeRows[:l-1]
		return row
	}
	return r.slab.carve(n)
}

func (r *run[R, Row]) newHeader(n int) []Row {
	if l := len(r.freeHdrs); l > 0 {
		h := r.freeHdrs[l-1]
		r.freeHdrs = r.freeHdrs[:l-1]
		return h[:n]
	}
	if len(r.hdrSlab) < n {
		r.hdrSlab = make([]Row, slabRows*n)
	}
	h := r.hdrSlab[:n:n]
	r.hdrSlab = r.hdrSlab[n:]
	return h
}

// replaced returns the empty list to record the nodes whose row the step
// to time t replaces, backed by t's ring slot: that slot's own list
// belongs to the state put evicts at t, which is no longer consulted.
func (r *run[R, Row]) replaced(t int) []int32 { return r.repl[t%(r.window+1)][:0] }

// put publishes the state at time t, whose step replaced the rows of the
// nodes in repl, evicting — and recycling — whatever ages out of the
// ring. The evictee is the state at t−window−1 and its immediate
// successor (t−window) is still resident. Row sharing is contiguous in
// time, so the evictee's rows that the successor's step replaced are
// unreachable, and they are the only ones: eviction costs O(rows
// replaced), not O(n).
func (r *run[R, Row]) put(t int, s []Row, repl []int32) {
	size := r.window + 1
	slot := t % size
	if old := r.ring[slot]; old != nil {
		for _, i := range r.repl[(t-r.window)%size] {
			r.freeRows = append(r.freeRows, old[i])
		}
		r.freeHdrs = append(r.freeHdrs, old)
	}
	r.ring[slot], r.repl[slot] = s, repl
}

// at resolves a β lookup: the state at time b, read while computing time t.
func (r *run[R, Row]) at(t, b int) []Row {
	if b < 0 || b >= t {
		panic(fmt.Sprintf("engine: β lookup at time %d resolves to %d, violating S2", t, b))
	}
	if t-b > r.window {
		panic(fmt.Sprintf("engine: β at time %d reaches %d steps back, beyond the source's MaxLookback %d", t, t-b, r.window))
	}
	return r.ring[b%(r.window+1)]
}

// neighbours rebuilds the run's flat in-neighbour lists (r.nbr, r.nbrOff)
// from the adjacency, sizes the per-edge thresholds to them, and grows
// every worker's β scratch to the new maximum degree. Built per run, and
// again after a timeline mutation, because the topology moves between and
// within runs.
func (r *run[R, Row]) neighbours() {
	adj, n := r.e.adj, r.n
	if cap(r.nbrOff) < n+1 {
		r.nbrOff = make([]int32, n+1)
	}
	off := r.nbrOff[:n+1]
	nbr := r.nbr[:0]
	for i := 0; i < n; i++ {
		off[i] = int32(len(nbr))
		for k := 0; k < n; k++ {
			if _, ok := adj.Edge(i, k); ok && k != i {
				nbr = append(nbr, int32(k))
			}
		}
	}
	off[n] = int32(len(nbr))
	r.nbr, r.nbrOff = nbr, off
	if cap(r.lo) < len(nbr) {
		r.lo = make([]int32, len(nbr))
	}
	r.lo = r.lo[:len(nbr)]
	d := maxDegree(off)
	for w := range r.inc.scratch {
		if ws := &r.inc.scratch[w]; len(ws.betas) < d {
			ws.betas = make([]int, d)
		}
	}
}

// Run evaluates δ from start over src and returns the result: Start,
// Step to the horizon, Result. It panics on what Start returns as an
// error.
func (e *Engine[R]) Run(start *matrix.State[R], src Source) *Result[R] {
	st, err := e.Start(start, src, nil)
	if err != nil {
		panic(err.Error())
	}
	st.Step(src.Horizon())
	return st.Result()
}

// load publishes a dense state as the run's state at time t.
// Every row is new, so it replaces every row of any predecessor.
func (r *run[R, Row]) load(t int, st *matrix.State[R]) {
	s, repl := r.newHeader(r.n), r.replaced(t)
	for i := range s {
		row := r.newRow(r.n)
		r.ops.encodeRow(row, st.RowView(i))
		s[i] = row
		repl = append(repl, int32(i))
	}
	r.put(t, s, repl)
	r.prev = s
}

// startRun readies a run on the given row representation at step 0 from
// start.
func startRun[R, Row any](e *Engine[R], ops rowOps[R, Row], src Source, events []TimelineEvent[R],
	window int, doTerm bool, fairP int, start *matrix.State[R]) *run[R, Row] {
	n, T := src.Nodes(), src.Horizon()
	r := acquireRun(e, ops, n, window)
	r.e, r.n, r.T, r.t = e, n, T, 0
	if b, ok := src.(Batched); ok {
		r.sched = b
	} else {
		r.pw = pointwise{src}
		r.sched = &r.pw
	}
	r.doTerm, r.fairP = doTerm, fairP
	r.events, r.nextEv = events, 0
	r.lastChange, r.certGen, r.nCert, r.converged = 0, 1, 0, false
	r.lastRows, r.lastActs = 1, 1
	r.neighbours()
	if doTerm {
		if len(r.certStmp) != n {
			r.certStmp = make([]int32, n)
		} else {
			clear(r.certStmp)
		}
	}
	if len(events) > 0 {
		r.marks = make([]*matrix.State[R], 0, len(events))
	}
	r.load(0, start)
	return r
}

// step evaluates time steps t+1 … until (clamped to the horizon) and
// reports whether the run is done: the horizon was reached or convergence
// was certified. What the loop carries from step to step is hoisted into
// locals here and written back on return, so a run driven in one call
// pays nothing for being pausable; what a step's activations read is on
// the run (now, cur, prev), because they may run on the pool's helpers.
func (r *run[R, Row]) step(until int) bool {
	if until > r.T {
		until = r.T
	}
	if r.converged || r.t >= until {
		return r.converged || r.t >= r.T
	}
	e, ops, sched, n := r.e, r.ops, r.sched, r.n
	doTerm, certStmp := r.doTerm, r.certStmp
	lastChange, certGen, nCert := r.lastChange, r.certGen, r.nCert

	t := r.t
	for t < until {
		if doTerm && nCert == n && r.nextEv < len(r.events) {
			// A certified fixed point with an event still pending: a
			// quiescent interlude, jumped once it is absorbing (interlude.go).
			if to := r.jump(t, until, lastChange); to > t {
				t = to
				continue
			}
		}
		t++
		cur, repl := r.newHeader(n), r.replaced(t)
		copy(cur, r.prev)
		if r.nextEv < len(r.events) && r.events[r.nextEv].Step == t {
			// Timeline event step: no node activates. Restarted nodes'
			// rows are replaced by the identity row (recorded as changes
			// so neighbours recompute), then the mutation edits the
			// adjacency in place and the affected rows are invalidated so
			// their next activation recomputes in full — with change
			// tracking, so only genuinely moved columns propagate.
			ev := &r.events[r.nextEv]
			r.nextEv++
			if len(ev.Restart) > 0 {
				prevSnap := ops.materialise(r.prev)
				var scratch []R
				for _, i := range ev.Restart {
					if scratch == nil {
						scratch = make([]R, n)
					}
					for j := range scratch {
						scratch[j] = e.alg.Invalid()
					}
					scratch[i] = e.alg.Trivial()
					// A node listed twice restarts on the row it already has.
					row := cur[i]
					if !slices.Contains(repl, int32(i)) {
						row = r.newRow(n)
						cur[i] = row
						repl = append(repl, int32(i))
					}
					ops.encodeRow(row, scratch)
					old := prevSnap.RowView(i)
					chgI := &r.chg[i]
					for j := 0; j < n; j++ {
						if !e.alg.Equal(scratch[j], old[j]) {
							chgI.Set(j)
						}
					}
					r.foldRowChanges(i, t)
					r.lastComp[i] = -1
				}
			}
			if ev.Mutate != nil {
				ev.Mutate(e.adj)
				// Policy-state edits can change edge behaviour without
				// moving the adjacency generation; bump it so kernels
				// compiled for a later run can never be served stale.
				e.adj.Touch()
				r.neighbours()
				if ev.Invalidate == nil {
					for i := range r.lastComp {
						r.lastComp[i] = -1
					}
				}
			}
			for _, i := range ev.Invalidate {
				r.lastComp[i] = -1
			}
			r.inc.top = int32(t)
			r.put(t, cur, repl)
			r.prev = cur
			r.marks = append(r.marks, ops.materialise(cur))
			// An event reopens the convergence question from scratch.
			lastChange = t
			certGen++
			nCert = 0
			continue
		}
		actives := sched.ActiveSet(t, r.actives[:0])
		r.actives = actives
		stepChanged := false
		if len(actives) > 0 {
			r.now, r.cur, r.minB = t, cur, r.minB[:len(actives)]
			// The fan-out decision comes before any skip test, so it weighs
			// what every activation would walk at most, n·(deg+1), by the
			// share of its activations the run's last step recomputed: in
			// a convergence tail most activations skip, and a step whose
			// rows mostly skip stays inline.
			actOps := 0
			for _, i := range actives {
				actOps += n * int(r.nbrOff[i+1]-r.nbrOff[i]+1)
			}
			r.fanned = len(actives) > 1 && e.fanOut(actOps*r.lastRows/r.lastActs)
			if r.fanned {
				// The free list is not the tasks' to share: each activation
				// gets a row taken here, and the fold returns those that
				// skipped.
				r.taken = r.taken[:0]
				for range actives {
					r.taken = append(r.taken, r.newRow(n))
				}
				e.pool.do(&r.job, min(e.workers, len(actives)), len(actives), r)
			} else {
				for idx := range actives {
					r.activate(idx, 0)
				}
			}

			// Serial fold: publish the changed-destination sets of the
			// rows this step recomputed (lastComp = t) into the
			// last-changed matrix, the change-mask ring, and the global
			// dirty frontier.
			rows := 0
			for idx, i := range actives {
				if r.lastComp[i] != int32(t) {
					if r.fanned {
						r.freeRows = append(r.freeRows, r.taken[idx])
					}
					continue
				}
				rows++
				repl = append(repl, int32(i))
				if r.foldRowChanges(i, t) {
					stepChanged = true
				}
			}
			r.stats.RowsComputed += rows
			r.stats.RowsSkipped += len(actives) - rows
			r.lastRows, r.lastActs = rows, len(actives)
			r.inc.top = int32(t)
		}
		r.put(t, cur, repl)
		r.prev = cur

		if doTerm {
			// Convergence certification. A change at t opens a new
			// generation: every node must re-verify its row against data
			// generated at or after the change. An activation whose every
			// β lands at or after lastChange and that produced no change
			// (skips qualify — their inputs provably didn't move) is such
			// a verification. Once all n nodes are certified AND the
			// frontier has been quiet for a full fairness period — so no
			// future β can reach back before lastChange — the state is a
			// fixed point that no schedule continuation can disturb.
			if stepChanged {
				lastChange = t
				certGen++
				nCert = 0
			}
			for idx, i := range actives {
				if int(r.minB[idx]) >= lastChange && certStmp[i] != certGen {
					certStmp[i] = certGen
					nCert++
				}
			}
			if nCert == n && t-lastChange >= r.fairP-1 && r.nextEv >= len(r.events) {
				// With timeline events still pending, a certified fixed
				// point is only an interlude — the next event will
				// perturb it, so the run carries on, by the jump at the
				// top of the loop, to the event.
				r.converged = true
				break
			}
		}
	}
	// Hand the position back to the run.
	r.t = t
	r.lastChange, r.certGen, r.nCert = lastChange, certGen, nCert
	return r.converged || t >= r.T
}

// activate evaluates activation idx of the step in flight — node i =
// actives[idx] — on behalf of worker; it is the unit of parallel work. It
// draws i's β values, decides in O(deg) whether any β-resolved input
// changed since i's row was computed, and only when one did resolves i's
// tables and dirty columns, takes a row and runs the kernel. It writes
// i's own state (its thresholds, tables, lastRead and lastComp entries,
// cur[i], chg[i]), slot idx of minB and the worker's scratch, and reads
// only what the serial fold and put leave alone until every activation of
// the step is done, so a step's activations run in any order, on any
// worker.
func (r *run[R, Row]) activate(idx, worker int) {
	i, t, n := r.actives[idx], r.now, r.n
	ws := &r.inc.scratch[worker]
	off0, off1 := r.nbrOff[i], r.nbrOff[i+1]
	nb := r.nbr[off0:off1]
	betas := ws.betas[:len(nb)]
	r.minB[idx] = int32(r.sched.Betas(t, i, nb, betas))
	// A first activation (nothing to reuse yet) recomputes in full; the
	// kernel still tracks changes against the node's starting row, so
	// ConvergedAt and FixedPoint round counts stay exact.
	base := i * n
	var lo []int32 // nil: a full (first-activation) recomputation
	if r.lastComp[i] >= 0 {
		// The node has a previous row. Decide in O(deg) whether any
		// β-resolved input changed since it was computed; if not, the row
		// is structurally unchanged — skip it.
		lo = r.lo[off0:off1:off1]
		compute := false
		for ai, k32 := range nb {
			l := min(int32(betas[ai]), r.lastRead[base+int(k32)])
			lo[ai] = l
			if r.inc.rowMax[k32] > l {
				compute = true
			}
		}
		if !compute {
			for ai, k32 := range nb {
				// The kept row is also valid against the fresher read
				// time — advance it to maximise future skips.
				if slot := base + int(k32); int32(betas[ai]) > r.lastRead[slot] {
					r.lastRead[slot] = int32(betas[ai])
				}
			}
			return
		}
	}
	tb := r.tabs[i]
	for ai, k32 := range nb {
		k := int(k32)
		tb[k] = r.at(t, betas[ai])[k]
		r.lastRead[base+k] = int32(betas[ai])
	}
	r.lastComp[i] = int32(t)
	var row Row
	if r.fanned {
		row = r.taken[idx]
	} else {
		row = r.newRow(n)
	}
	r.cur[i] = row
	// The dense/sparse decision, for both row representations: a first
	// activation and a row whose every column is dirty run the dense
	// kernel loops, which beat the selection's indirection.
	var sel []int32
	if lo != nil {
		sel = resolveDirtySel(r.inc, nb, lo, ws)
		if len(sel) == n {
			sel = nil
		}
	}
	ws.cells += r.ops.sigma(r, i, sel, worker)
}

// runIdx implements tasker: a fanned-out step's tasks are its activations.
func (r *run[R, Row]) runIdx(idx, worker int) { r.activate(idx, worker) }

// completed returns the last completed step.
func (r *run[R, Row]) completed() int { return r.t }

// progress returns the run's identity as of the last completed step,
// cell counts folded in.
func (r *run[R, Row]) progress() Progress {
	p := r.stats.Progress
	p.Steps = r.t
	for w := range r.inc.scratch {
		p.CellsComputed += r.inc.scratch[w].cells
	}
	p.ConvergedAt = -1
	if r.converged {
		p.ConvergedAt = r.lastChange
	}
	return p
}

// state materialises the state at the last completed step.
func (r *run[R, Row]) state() *matrix.State[R] { return r.ops.materialise(r.prev) }

// statsNow returns the run counters as of the last completed step, the
// jumped interludes settled.
func (r *run[R, Row]) statsNow() Stats {
	r.stats.RowsSkipped += r.owed.settle(r.sched)
	return Stats{Progress: r.progress(), RowsSkipped: r.stats.RowsSkipped}
}

// finish writes the run's outcome into res, reports it to the ObserveRuns
// hook, and releases the scratch. What the run still owes goes with the
// result, settled when its Stats are read.
func (r *run[R, Row]) finish(res *Result[R]) {
	p := r.progress()
	*res = Result[R]{final: r.ops.materialise(r.prev), marks: r.marks,
		stats: Stats{Progress: p, RowsSkipped: r.stats.RowsSkipped}}
	if len(r.owed) > 0 {
		res.owed, res.sched = slices.Clone(r.owed), r.sched
		if r.sched == Batched(&r.pw) {
			// The adapter lives in the run's scratch, which is parked below.
			res.sched = &pointwise{r.pw.Source}
		}
	}
	observeRun(p)
	r.release()
}

func maxDegree(off []int32) int {
	max := 0
	for i := 0; i+1 < len(off); i++ {
		if d := int(off[i+1] - off[i]); d > max {
			max = d
		}
	}
	return max
}

// fanOut decides whether a step of stepOps work fans its tasks out to the
// pool or runs them inline on the caller.
func (e *Engine[R]) fanOut(stepOps int) bool {
	return e.workers > 1 && stepOps >= e.minOps
}

// genOps is the []R row representation: the interface evaluation path.
type genOps[R any] struct{ e *Engine[R] }

func (genOps[R]) geom() int { return 0 }

func (genOps[R]) newSlab() rowSlab[[]R] { return &genSlab[R]{} }

func (genOps[R]) prepare(*run[R, []R], int) {}

func (genOps[R]) encodeRow(dst, src []R) { copy(dst, src) }

func (o genOps[R]) materialise(s [][]R) *matrix.State[R] { return materialise(o.e.alg, s) }

func (o genOps[R]) sigma(r *run[R, []R], i int, sel []int32, _ int) int {
	nb := r.nbr[r.nbrOff[i]:r.nbrOff[i+1]]
	return matrix.SigmaRowChanged(o.e.alg, o.e.adj, i, nb, r.tabs[i], r.prev[i], r.cur[i], sel, &r.chg[i])
}

// materialise copies a ring state into a standalone matrix.State.
func materialise[R any](alg core.Algebra[R], s [][]R) *matrix.State[R] {
	st := matrix.NewState(len(s), alg.Invalid())
	for i, row := range s {
		st.SetRow(i, row)
	}
	return st
}

// SigmaInto computes σ(x) into out (which must be distinct from x).
func (e *Engine[R]) SigmaInto(x, out *matrix.State[R]) {
	n := x.N
	s := &sigmaRows[R]{e: e, tabs: x.RowViews(), out: out}
	if n > 1 && e.fanOut(n*n*n) {
		e.pool.do(&s.job, min(e.workers, n), n, s)
		return
	}
	for i := range n {
		s.runIdx(i, 0)
	}
}

// sigmaRows is SigmaInto's tasker: task i is node i's row, the plain
// kernel over every candidate neighbour.
type sigmaRows[R any] struct {
	e    *Engine[R]
	tabs [][]R
	out  *matrix.State[R]
	job  job
}

func (s *sigmaRows[R]) runIdx(i, _ int) {
	matrix.SigmaRowInto(s.e.alg, s.e.adj, i, nil, s.tabs, s.out.RowView(i))
}

// FixedPoint iterates σ from start until a fixed point or maxRounds, the
// sharded counterpart of matrix.FixedPoint. It returns the final state,
// the number of rounds applied, and whether a fixed point was reached.
//
// It is a Run under the Synchronous source, which is Fair, so convergence
// certification stops the iteration — each round recomputes only the
// cells whose inputs changed, so detection costs no extra O(n²) Equal
// sweep per round and the total cost is output-sensitive.
func (e *Engine[R]) FixedPoint(start *matrix.State[R], maxRounds int) (*matrix.State[R], int, bool) {
	res := e.Run(start, Synchronous{N: e.adj.N, T: maxRounds})
	if at, ok := res.Converged(); ok {
		return res.Final(), at, true
	}
	return res.Final(), maxRounds, false
}
