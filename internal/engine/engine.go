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
//   - Sharded recomputation. The per-node σ-row updates of one step are
//     independent, so a step that costs more than the hand-off fans them
//     out, one task per row, across a persistent worker pool whose
//     helpers stay hot between one step's fan-out and the next (pool.go)
//     — with a deterministic merge: every task writes its own row, so the
//     result is bit-identical to the sequential path.
//   - Change-driven evaluation. Real asynchronous protocols
//     process received updates; they do not periodically recompute
//     everything. The engine tracks, per node and destination, when each
//     route last changed, skips an activation outright when none of the
//     β-resolved inputs changed since the node's last recomputation, and
//     otherwise recomputes only the affected destination columns, reusing
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
//     a rowOps capability), so the columnar path shares every line of the
//     scheduling, skip, and certification logic with the interface path,
//     which serves every other run (algebras that do not pack, timelines).
//
// The source decides everything else: a run's history ring is its
// MaxLookback, and it may stop early iff it is Fair. The only knob is the
// pool size (Config).
package engine

import (
	"fmt"
	"math/bits"
	"runtime"
	"slices"
	"sync"

	"repro/internal/core"
	"repro/internal/matrix"
)

// minParallelOps is the per-step work — Σ n·(deg+1) over the rows that
// recompute, what the kernels walk at most — below which the engine stays
// sequential: a hot hand-off costs microseconds, a parked helper a futex
// round trip, and a step this small (a ring-64 service request never
// exceeds it) is done before either pays.
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

// incShared is the read-only change-tracking state a step's tasks consume:
// the last-changed-time matrix and the per-worker scratch bitsets. It is
// written only between steps, by the serial fold.
type incShared struct {
	n int
	// ver[k·n+j] is the time at which node k's route to j last changed
	// (0 = never since the start state). It is the compact union of every
	// published snapshot's changed-destination bitsets: "did k's column j
	// change in (lo, t]?" is exactly ver[k·n+j] > lo.
	ver []int32
	// wordMax[k·wper+wi] is the word-granular summary of ver: the latest
	// time any of node k's columns in word wi (destinations [64wi,
	// 64wi+64)) changed. The dirty resolution consults it first, so 64
	// clean columns cost one compare per neighbour instead of 64.
	wordMax []int32
	wper    int // words per node: ⌈n/64⌉
	// rowMax[k] = max_j ver[k·n+j]: the O(1) whole-row dirty summary,
	// consulted both by the skip pass and by dirty resolution to drop
	// fully-clean neighbours before any per-word work.
	rowMax []int32
	// hist is a ring of per-step change masks, histH slots per node:
	// slot (k, s mod histH) holds node k's changed-destination words of
	// step s, valid iff histStamp[k·histH + s mod histH] == s. For a
	// threshold within the ring's depth the dirty resolution ORs these
	// precomputed words — a handful of loads per neighbour — instead of
	// comparing per-column stamps; ver remains the exact fallback for
	// older thresholds. The ring is the same memory order as ver itself
	// (histH/64 · 2 words per ver's int32 column, per node).
	hist      []uint64 // n · histH · wper
	histStamp []int32  // n · histH
	// top is the latest step whose changes have been folded; the mask
	// union over (lo, top] equals {j : ver[j] > lo} because no column
	// changed after top.
	top int32
	// scratch[w] is worker w's workspace.
	scratch []workerScratch
}

// histH is the change-mask ring depth per node: thresholds reaching at
// most histH steps back resolve dirty columns from precomputed masks.
// Must be a power of two.
const histH = 32

// workerScratch is one worker's private workspace: the dirty-column
// masks being assembled, their bitset form, and the worker's count of
// recomputed cells, padded off every other worker's cache lines.
type workerScratch struct {
	cols  matrix.Bitset
	masks []uint64
	cells int
	_     [64]byte
}

// rowTask is one unit of sharded work: compute node i's σ-row into dst
// from the β-resolved neighbour tables. A run's tasks are tracked
// (inc != nil): they recompute only the columns whose inputs changed
// since the row's last recomputation, copy prev for the rest, and record
// the columns whose value moved in chg; Engine.SigmaInto's are not. Row is
// the row representation: []R on the interface path, core.Col (packed
// lanes) on the columnar path.
type rowTask[R, Row any] struct {
	i    int
	tabs []Row
	dst  Row
	inc  *incShared
	prev Row            // the row's previous value
	nbr  []int32        // i's in-neighbours
	lo   []int32        // per-neighbour unchanged-since thresholds
	chg  *matrix.Bitset // changed-destination output, the task's alone
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
// bit-identical by contract — the loop, the skip logic, the stats and
// the certification never see the difference.
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
	emptyRow(a Row) bool
	// sameRow reports whether two non-empty rows share backing storage.
	sameRow(a, b Row) bool
	// materialise converts a snapshot into a standalone state.
	materialise(s []Row) *matrix.State[R]
	// runTask executes one row task on behalf of the given worker.
	runTask(tk *rowTask[R, Row], worker int)
}

// run is the mutable state of one evaluation, generic over the row
// representation. Run values are pooled (spares) and every slice below
// is retained across runs, so a warm run allocates nothing on the hot
// path. A snapshot — one time step's global state —
// is a []Row of n rows, shared with neighbouring snapshots for every
// node that did not activate in between, and immutable once published.
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
	tabs     [][]Row // per-node β-resolved table scratch
	actives  []int
	tasks    []rowTask[R, Row]
	job      job // the parallel step in flight; reused, one per run
	loArena  []int32
	betaBuf  []int
	actMinB  []int32 // per processed activation: node and min β, for certification
	actNodes []int32
	certStmp []int32
	seenRows []Row   // ring-reclaim dedup scratch
	cws      []colWS // columnar per-worker scratch (nil on the interface path)

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
	prev       []Row // the state at t
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

// put publishes the state at time t, evicting — and recycling — whatever
// ages out of the ring.
func (r *run[R, Row]) put(t int, s []Row) {
	size := r.window + 1
	slot := t % size
	if old := r.ring[slot]; old != nil {
		// The evictee is the state at t−window−1; its immediate successor
		// (t−window) is still resident. Row sharing is contiguous in time,
		// so a row the successor does not share is unreachable and can be
		// reused.
		next := r.ring[(t-r.window)%size]
		for i, row := range old {
			if !r.ops.emptyRow(row) && !r.ops.sameRow(row, next[i]) {
				r.freeRows = append(r.freeRows, row)
			}
		}
		r.freeHdrs = append(r.freeHdrs, old)
	}
	r.ring[slot] = s
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

// spareShape is what run scratch is sized for. A run is only ever reused
// at the shape it was built for — a spare of another shape is left for
// its own kind (and in time evicted), never resized in place.
type spareShape struct {
	typ              any // (*run[R, Row])(nil): the row type
	n, workers, geom int
}

// spareShapes is how many shapes' worth of parked runs the process keeps.
const spareShapes = 4

// spares is the process-wide list of parked run scratch, least recently
// parked first: what makes a warm evaluation loop allocate (almost)
// nothing, whether the next run is on this engine or on a fresh one (the
// service builds an engine per request). Plain slots rather than a
// sync.Pool so the garbage the run itself no longer produces cannot
// trigger the GC into discarding the very scratch that eliminates it.
//
// The bound is constants: at most GOMAXPROCS runs of one shape (more are
// not in use at once without oversubscribing) and spareShapes·GOMAXPROCS
// in all, the least recently parked evicted first. A parked run of n
// nodes and window w holds at most (w+1)·n rows of n cells, n² row
// headers of β-resolved tables and 12·n² bytes of change tracking (ver,
// lastRead, the mask ring): ≈ 0.3 MB at the service's n = 64, w = 4, so
// ≤ 2.4 MB retained on 2 CPUs; ≈ 35 MB a run at E5's n = 512, w = 8. It
// holds nothing of the engine, adjacency, source or timeline it last
// served (see release).
var spares struct {
	sync.Mutex
	list []parked
}

type parked struct {
	shape spareShape
	run   any
}

// takeSpare removes and returns the most recently parked run of the
// shape, nil when there is none.
func takeSpare(shape spareShape) any {
	spares.Lock()
	defer spares.Unlock()
	for idx := len(spares.list) - 1; idx >= 0; idx-- {
		if p := spares.list[idx]; p.shape == shape {
			spares.list = slices.Delete(spares.list, idx, idx+1)
			return p.run
		}
	}
	return nil
}

// parkSpare parks a released run, evicting the least recently parked run
// of its shape when GOMAXPROCS of them are parked already, else of any
// shape when the list is full.
func parkSpare(shape spareShape, r any) {
	perShape := runtime.GOMAXPROCS(0)
	spares.Lock()
	defer spares.Unlock()
	oldest, same := 0, 0
	for idx := len(spares.list) - 1; idx >= 0; idx-- {
		if spares.list[idx].shape == shape {
			oldest, same = idx, same+1
		}
	}
	if same >= perShape {
		spares.list = slices.Delete(spares.list, oldest, oldest+1)
	} else if len(spares.list) >= spareShapes*perShape {
		spares.list = slices.Delete(spares.list, 0, 1)
	}
	spares.list = append(spares.list, parked{shape, r})
}

// acquireRun returns a run ready for evaluation: a parked one of exactly
// this shape (scratch, history ring, row slabs and change-tracking
// matrices reset and reused) when there is one, a fresh one otherwise.
func acquireRun[R, Row any](e *Engine[R], ops rowOps[R, Row], n, window int) *run[R, Row] {
	shape := spareShape{(*run[R, Row])(nil), n, e.workers, ops.geom()}
	r, _ := takeSpare(shape).(*run[R, Row])
	if r == nil {
		r = &run[R, Row]{shape: shape}
	}
	r.ops = ops
	if r.slab == nil {
		r.slab = ops.newSlab()
	}
	ops.prepare(r, n)
	r.window = window
	r.stats, r.owed = Stats{}, r.owed[:0]
	if len(r.ring) != window+1 {
		r.ring = make([][]Row, window+1)
	}
	if r.inc == nil {
		wper := (n + 63) / 64
		r.inc = &incShared{
			n: n, ver: make([]int32, n*n),
			wordMax: make([]int32, n*wper), wper: wper,
			rowMax:    make([]int32, n),
			hist:      make([]uint64, n*histH*wper),
			histStamp: make([]int32, n*histH),
			scratch:   make([]workerScratch, e.workers),
		}
		for w, b := range matrix.NewBitsets(e.workers, n) {
			r.inc.scratch[w].cols = b
		}
		r.lastComp = make([]int32, n)
		r.lastRead = make([]int32, n*n)
		r.chg = matrix.NewBitsets(n, n)
	} else {
		clear(r.inc.ver)
		clear(r.inc.wordMax)
		clear(r.inc.rowMax)
		clear(r.inc.histStamp)
		clear(r.lastRead)
		for w := range r.inc.scratch {
			r.inc.scratch[w].cells = 0
		}
		// r.chg is clear: the serial fold clears every set bitset before
		// the step that set it returns, and scratch is only ever pooled
		// between steps. hist needs no clearing — stale slots fail their
		// stamp check.
	}
	r.inc.top = 0
	for i := range r.lastComp {
		r.lastComp[i] = -1
	}
	if cap(r.actives) < n {
		r.actives = make([]int, 0, n)
	}
	if len(r.tabs) != n {
		r.tabs = make([][]Row, n)
	}
	return r
}

// release ends the evaluation: it reclaims the run's history rows and
// headers into its free lists and parks the scratch on the spare
// list. Row sharing is contiguous in time, so the distinct rows of one
// node across the ring are found by a pointer scan; everything reclaimed
// here feeds the next run's newRow/newHeader without touching the
// allocator.
func (r *run[R, Row]) release() {
	ops := r.ops
	// A parked run pins nothing of what it served: not the engine (closed
	// or not), its adjacency, the source or the timeline's closures.
	r.e, r.ops, r.sched, r.pw, r.events, r.marks, r.prev = nil, nil, nil, pointwise{}, nil, nil, nil
	seen := r.seenRows
	for i := 0; i < r.n; i++ {
		seen = seen[:0]
		for _, s := range r.ring {
			if s == nil {
				continue
			}
			row := s[i]
			if ops.emptyRow(row) {
				continue
			}
			dup := false
			for _, q := range seen {
				if ops.sameRow(q, row) {
					dup = true
					break
				}
			}
			if !dup {
				seen = append(seen, row)
				r.freeRows = append(r.freeRows, row)
			}
		}
	}
	r.seenRows = seen[:0]
	for si, s := range r.ring {
		if s != nil {
			r.freeHdrs = append(r.freeHdrs, s)
			r.ring[si] = nil
		}
	}
	// So do the rowTask values lingering in the retained task backing.
	clear(r.tasks[:cap(r.tasks)])
	parkSpare(r.shape, r)
}

// neighbours rebuilds the run's flat in-neighbour lists (r.nbr, r.nbrOff)
// from the adjacency, and grows the per-activation β scratch to the new
// maximum degree. Built per run, and again after a timeline mutation,
// because the topology moves between and within runs.
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
	if d := maxDegree(off); len(r.betaBuf) < d {
		r.betaBuf = make([]int, d)
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

// foldRowChanges publishes node i's changed-destination scratch bitset
// (r.chg[i]) for step t into the last-changed matrix, the change-mask
// ring, and the word/row dirty summaries, then clears it. It reports
// whether any column actually changed.
func (r *run[R, Row]) foldRowChanges(i, t int) bool {
	chgI := &r.chg[i]
	if chgI.Empty() {
		return false
	}
	base := i * r.inc.n
	wbase := i * r.inc.wper
	slot := i*histH + t&(histH-1)
	hb := r.inc.hist[slot*r.inc.wper : (slot+1)*r.inc.wper]
	clear(hb)
	r.inc.histStamp[slot] = int32(t)
	chgI.ForEachWord(func(wi int, w uint64) {
		hb[wi] = w
		r.inc.wordMax[wbase+wi] = int32(t)
		jb := base + wi<<6
		for w != 0 {
			r.inc.ver[jb+bits.TrailingZeros64(w)] = int32(t)
			w &= w - 1
		}
	})
	r.inc.rowMax[i] = int32(t)
	chgI.Clear()
	return true
}

// load publishes a dense state as the run's state at time t.
func (r *run[R, Row]) load(t int, st *matrix.State[R]) {
	s := r.newHeader(r.n)
	for i := range s {
		row := r.newRow(r.n)
		r.ops.encodeRow(row, st.RowView(i))
		s[i] = row
	}
	r.put(t, s)
	r.prev = s
}

// startRun readies a run on the given row representation: at step 0 from
// start, or — when rs is non-nil, already validated against this engine
// and source — right after step rs.Step from the snapshot.
func startRun[R, Row any](e *Engine[R], ops rowOps[R, Row], src Source, events []TimelineEvent[R],
	window int, doTerm bool, fairP int, start *matrix.State[R], rs *Snapshot[R]) *run[R, Row] {
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
	r.neighbours()
	// loArena backs the per-task threshold slices of one step; sized to
	// the edge count, it never grows within a step.
	if cap(r.loArena) < len(r.nbr) {
		r.loArena = make([]int32, 0, len(r.nbr))
	}
	if doTerm {
		if cap(r.actMinB) < n {
			r.actMinB = make([]int32, 0, n)
			r.actNodes = make([]int32, 0, n)
		}
		if len(r.certStmp) != n {
			r.certStmp = make([]int32, n)
		} else {
			clear(r.certStmp)
		}
	}
	if len(events) > 0 {
		r.marks = make([]*matrix.State[R], 0, len(events))
	}
	if rs == nil {
		r.load(0, start)
	} else {
		// Resume: repopulate the history ring from the snapshot's
		// materialised states, restore the exact change-tracking matrices, and
		// rebuild the derived dirty summaries from them. From here the run
		// proceeds from step rs.Step+1 exactly as the uninterrupted one did.
		r.t = rs.Step
		for idx, st := range rs.States {
			r.load(rs.Step-len(rs.States)+1+idx, st)
		}
		copy(r.inc.ver, rs.Ver)
		copy(r.lastComp, rs.LastComp)
		copy(r.lastRead, rs.LastRead)
		rebuildIncSummaries(r.inc, rs.Step)
		r.stats = rs.Stats
		if doTerm {
			// The generation counter restarts at 1, but only membership
			// matters — the restored set and last-change step make every
			// future certify/terminate decision identical to the
			// uninterrupted run's.
			r.lastChange = rs.LastChange
			for i, c := range rs.Certified {
				if c {
					r.certStmp[i] = r.certGen
					r.nCert++
				}
			}
		}
	}
	return r
}

// step evaluates time steps t+1 … until (clamped to the horizon) and
// reports whether the run is done: the horizon was reached or convergence
// was certified. Everything the loop touches per step is hoisted into
// locals here and written back on return, so a run driven in one call
// pays nothing for being pausable.
func (r *run[R, Row]) step(until int) bool {
	if until > r.T {
		until = r.T
	}
	if r.converged || r.t >= until {
		return r.converged || r.t >= r.T
	}
	e, ops, sched, n := r.e, r.ops, r.sched, r.n
	doTerm := r.doTerm
	nbr, nbrOff, tabs, betaBuf, certStmp := r.nbr, r.nbrOff, r.tabs, r.betaBuf, r.certStmp
	actives, tasks, loArena := r.actives[:0], r.tasks, r.loArena[:0]
	actMinB, actNodes := r.actMinB[:0], r.actNodes[:0]
	prev, lastChange, certGen, nCert := r.prev, r.lastChange, r.certGen, r.nCert

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
		if r.nextEv < len(r.events) && r.events[r.nextEv].Step == t {
			// Timeline event step: no node activates. Restarted nodes'
			// rows are replaced by the identity row (recorded as changes
			// so neighbours recompute), then the mutation edits the
			// adjacency in place and the affected rows are invalidated so
			// their next activation recomputes in full — with change
			// tracking, so only genuinely moved columns propagate.
			ev := &r.events[r.nextEv]
			r.nextEv++
			cur := r.newHeader(n)
			copy(cur, prev)
			if len(ev.Restart) > 0 {
				prevSnap := ops.materialise(prev)
				var scratch []R
				for _, i := range ev.Restart {
					if scratch == nil {
						scratch = make([]R, n)
					}
					for j := range scratch {
						scratch[j] = e.alg.Invalid()
					}
					scratch[i] = e.alg.Trivial()
					row := r.newRow(n)
					ops.encodeRow(row, scratch)
					cur[i] = row
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
				nbr, nbrOff, betaBuf = r.nbr, r.nbrOff, r.betaBuf
				if ev.Rows == nil {
					for i := range r.lastComp {
						r.lastComp[i] = -1
					}
				} else {
					for _, i := range ev.Rows {
						r.lastComp[i] = -1
					}
				}
			}
			for _, i := range ev.Invalidate {
				r.lastComp[i] = -1
			}
			r.inc.top = int32(t)
			r.put(t, cur)
			prev = cur
			r.marks = append(r.marks, ops.materialise(cur))
			// An event reopens the convergence question from scratch.
			lastChange = t
			certGen++
			nCert = 0
			continue
		}
		actives = sched.ActiveSet(t, actives[:0])
		cur := r.newHeader(n)
		copy(cur, prev)
		stepChanged := false
		if len(actives) > 0 {
			// The skip pass builds one task per row that survives it; the
			// fan-out decision afterwards weighs only those rows' work (in
			// a convergence tail most activations skip).
			tasks = tasks[:0]
			loArena = loArena[:0]
			actMinB = actMinB[:0]
			actNodes = actNodes[:0]
			stepOps := 0
			for _, i := range actives {
				nb := nbr[nbrOff[i]:nbrOff[i+1]]
				minB := sched.Betas(t, i, nb, betaBuf)
				// A first activation (nothing to reuse yet) recomputes in
				// full; the kernel still tracks changes against the node's
				// starting row, so ConvergedAt and FixedPoint round counts
				// stay exact.
				base, arena0, compute := i*n, -1, true
				if r.lastComp[i] >= 0 {
					// The node has a previous row. Decide in O(deg) whether
					// any β-resolved input changed since it was computed;
					// if not, the row is structurally unchanged — skip it.
					arena0, compute = len(loArena), false
					for ai, k32 := range nb {
						lo := min(betaBuf[ai], int(r.lastRead[base+int(k32)]))
						loArena = append(loArena, int32(lo))
						if int(r.inc.rowMax[k32]) > lo {
							compute = true
						}
					}
				}
				if compute {
					tb := tabs[i]
					if tb == nil {
						tb = r.newHeader(n)
						tabs[i] = tb
					}
					for ai, k32 := range nb {
						k := int(k32)
						tb[k] = r.at(t, betaBuf[ai])[k]
						r.lastRead[base+k] = int32(betaBuf[ai])
					}
					r.lastComp[i] = int32(t)
					cur[i] = r.newRow(n)
					var lo []int32 // nil: a full (first-activation) recomputation
					if arena0 >= 0 {
						lo = loArena[arena0 : arena0+len(nb) : arena0+len(nb)]
					}
					tasks = append(tasks, rowTask[R, Row]{
						i: i, tabs: tb, dst: cur[i],
						inc: r.inc, prev: prev[i], nbr: nb, lo: lo, chg: &r.chg[i],
					})
					// What the kernel walks at most: n columns over the
					// neighbour list; a dirty scan may touch far fewer.
					stepOps += n * (len(nb) + 1)
				} else {
					r.stats.RowsSkipped++
					for ai, k32 := range nb {
						// The kept row is also valid against the fresher
						// read time — advance it to maximise future skips.
						if slot := base + int(k32); int32(betaBuf[ai]) > r.lastRead[slot] {
							r.lastRead[slot] = int32(betaBuf[ai])
						}
					}
					loArena = loArena[:arena0]
				}
				if doTerm {
					actNodes = append(actNodes, int32(i))
					actMinB = append(actMinB, int32(minB))
				}
			}
			if len(tasks) > 0 {
				r.tasks = tasks
				r.exec(e.fanOut(stepOps))
			}
			r.stats.RowsComputed += len(tasks)

			// Serial fold: publish this step's changed-destination sets
			// into the last-changed matrix, the change-mask ring, and the
			// global dirty frontier.
			for k := range tasks {
				if r.foldRowChanges(tasks[k].i, t) {
					stepChanged = true
				}
			}
			r.inc.top = int32(t)
		}
		r.put(t, cur)
		prev = cur

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
			for idx, i32 := range actNodes {
				if int(actMinB[idx]) >= lastChange && certStmp[i32] != certGen {
					certStmp[i32] = certGen
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
	// Hand the position, and any backing the loop grew, back to the run.
	r.t, r.prev = t, prev
	r.lastChange, r.certGen, r.nCert = lastChange, certGen, nCert
	r.actives, r.tasks, r.loArena = actives[:0], tasks, loArena[:0]
	r.actMinB, r.actNodes = actMinB[:0], actNodes[:0]
	return r.converged || t >= r.T
}

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

// fanOut decides whether a step of stepOps work fans its row tasks out to
// the pool or runs them inline on the caller.
func (e *Engine[R]) fanOut(stepOps int) bool {
	return e.workers > 1 && stepOps >= e.minOps
}

// genOps is the []R row representation: the interface evaluation path.
type genOps[R any] struct{ e *Engine[R] }

func (genOps[R]) geom() int { return 0 }

func (genOps[R]) newSlab() rowSlab[[]R] { return &genSlab[R]{} }

func (genOps[R]) prepare(*run[R, []R], int) {}

func (genOps[R]) encodeRow(dst, src []R) { copy(dst, src) }

func (genOps[R]) emptyRow(a []R) bool { return len(a) == 0 }

func (genOps[R]) sameRow(a, b []R) bool { return &a[0] == &b[0] }

func (o genOps[R]) materialise(s [][]R) *matrix.State[R] { return materialise(o.e.alg, s) }

// runTask executes one row task. Untracked tasks run the plain kernel;
// tracked tasks resolve the row's dirty columns from the last-changed
// matrix, recompute only those, and record which moved.
func (o genOps[R]) runTask(tk *rowTask[R, []R], worker int) {
	e := o.e
	if tk.inc == nil {
		matrix.SigmaRowInto(e.alg, e.adj, tk.i, tk.nbr, tk.tabs, tk.dst)
		return
	}
	ws := &tk.inc.scratch[worker]
	if tk.lo == nil {
		// Tracked full recomputation (first activation): every column is
		// computed, changes recorded against the node's starting row.
		ws.cells += matrix.SigmaRowChanged(e.alg, e.adj, tk.i, tk.nbr, tk.tabs, tk.prev, tk.dst, nil, tk.chg)
		return
	}
	dirtyCnt := resolveDirty(tk.inc, tk.nbr, tk.lo, ws)
	if dirtyCnt == 0 {
		copy(tk.dst, tk.prev)
		return
	}
	cols := &ws.cols
	if dirtyCnt == tk.inc.n {
		// Everything changed: the dense kernel's tight loops beat the
		// bit-iterating sparse path.
		cols = nil
	}
	ws.cells += matrix.SigmaRowChanged(e.alg, e.adj, tk.i, tk.nbr, tk.tabs, tk.prev, tk.dst, cols, tk.chg)
}

// dirtyMasks computes the row's dirty-column set — the destinations
// whose β-resolved inputs changed since the row's thresholds — as one
// mask word per 64 columns, returning the masks and the dirty count. The
// scan prunes at three granularities before touching a single per-column
// stamp: a neighbour whose whole row is clean since its threshold
// (rowMax) is dropped up front, a clean 64-column word costs one compare
// (wordMax), and a word already fully dirty from an earlier neighbour is
// skipped — change wavefronts make full words common. Both resolveDirty
// and resolveDirtySel emit exactly this set, so the interface and
// columnar paths have identical Stats by construction.
func dirtyMasks(inc *incShared, nbr, lo []int32, ws *workerScratch) ([]uint64, int) {
	n, wper, top := inc.n, inc.wper, int(inc.top)
	if cap(ws.masks) < wper {
		ws.masks = make([]uint64, wper)
	}
	masks := ws.masks[:wper]
	clear(masks)
	for ai, k32 := range nbr {
		k := int(k32)
		l := int(lo[ai])
		if int(inc.rowMax[k]) <= l {
			continue
		}
		if l >= top-histH {
			// The threshold is within the mask ring: the dirty set is the
			// union of this neighbour's change masks over (l, top] — a
			// stamp check and at most wper ORs per step in the window.
			stampRow := inc.histStamp[k*histH : (k+1)*histH]
			histRow := inc.hist[k*histH*wper : (k+1)*histH*wper]
			for s := l + 1; s <= top; s++ {
				sl := s & (histH - 1)
				if stampRow[sl] != int32(s) {
					continue
				}
				for x, h := range histRow[sl*wper : (sl+1)*wper] {
					masks[x] |= h
				}
			}
			continue
		}
		// Threshold older than the ring: exact per-column scan against
		// ver, one 64-column word at a time, skipping words the summary
		// proves clean and words already fully dirty.
		row := inc.ver[k*n : (k+1)*n]
		wm := inc.wordMax[k*wper : (k+1)*wper]
		l32 := lo[ai]
		for wi, m := range masks {
			if wm[wi] <= l32 {
				continue
			}
			jlo, jhi := wi<<6, min(wi<<6+64, n)
			if m == ^uint64(0)>>(64-(jhi-jlo)) {
				continue
			}
			for x, v := range row[jlo:jhi] {
				if v > l32 {
					m |= 1 << x
				}
			}
			masks[wi] = m
		}
	}
	dirtyCnt := 0
	for _, m := range masks {
		dirtyCnt += bits.OnesCount64(m)
	}
	return masks, dirtyCnt
}

// resolveDirty writes the row's dirty-column set into ws.cols and returns
// the dirty count (the interface path's form).
func resolveDirty(inc *incShared, nbr, lo []int32, ws *workerScratch) int {
	masks, dirtyCnt := dirtyMasks(inc, nbr, lo, ws)
	for wi, m := range masks {
		ws.cols.StoreWord(wi, m)
	}
	return dirtyCnt
}

// resolveDirtySel appends the row's dirty columns to sel in ascending
// order (the selection vector the columnar kernels iterate).
func resolveDirtySel(inc *incShared, nbr, lo []int32, ws *workerScratch, sel []int32) []int32 {
	masks, _ := dirtyMasks(inc, nbr, lo, ws)
	for wi, m := range masks {
		jb := wi << 6
		for m != 0 {
			sel = append(sel, int32(jb+bits.TrailingZeros64(m)))
			m &= m - 1
		}
	}
	return sel
}

// exec runs the step's row tasks (r.tasks), across the pool when fan says
// the step is big enough to pay for it. Tasks write disjoint rows, so the
// merge is a no-op and the result is bit-identical to sequential order.
// The job is the run's own: concurrent runs on one engine share the pool,
// never a job.
func (r *run[R, Row]) exec(fan bool) {
	e, tasks := r.e, r.tasks
	if !fan || len(tasks) == 1 {
		for i := range tasks {
			r.ops.runTask(&tasks[i], 0)
		}
		return
	}
	e.pool.do(&r.job, min(e.workers, len(tasks)), len(tasks), r)
}

// runIdx implements tasker.
func (r *run[R, Row]) runIdx(idx, worker int) { r.ops.runTask(&r.tasks[idx], worker) }

// materialise copies a snapshot into a standalone matrix.State.
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
	tabs := x.RowViews()
	tasks := make([]rowTask[R, []R], n)
	for i := range tasks {
		tasks[i] = rowTask[R, []R]{i: i, tabs: tabs, dst: out.RowView(i)}
	}
	(&run[R, []R]{e: e, ops: genOps[R]{e: e}, tasks: tasks}).exec(e.fanOut(n * n * n))
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
