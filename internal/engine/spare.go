package engine

import (
	"runtime"
	"slices"
	"sync"

	"repro/internal/matrix"
)

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
// nodes, E edges and window w holds at most (w+1)·n rows of n cells,
// 8·n² bytes of change tracking (ver and the mask ring), and per edge
// its read time, threshold and neighbour entry (twice over for the
// lists a timeline mutation rebuilds into); the β-resolved tables are one
// row header per in-edge of the activation in hand, per worker. Measured
// as the heap one run leaves retained (GOMAXPROCS = 2): ≈ 0.25 MB at the
// service's n = 64, w = 4, so ≤ 2 MB on 2 CPUs, and ≈ 11.6 MB at E5's
// n = 512, w = 8 — 0.46 and 21.6 MB while the tables were n² row headers
// a run and the read times n² int32s. A memoising algebra's run adds its
// edge-output memos, 2·E·n·(4 + 8W) bytes: ≈ 1.4 MB on the policy
// benchmark's ring-128+chords (E = 272, W = 2). It holds nothing of the
// engine, adjacency, source or timeline it last served (see release).
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
// Everything sized by the shape is allocated once, for the run's life;
// only what the window, the topology or the timeline sizes is checked.
func acquireRun[R, Row any](e *Engine[R], ops rowOps[R, Row], n, window int) *run[R, Row] {
	shape := spareShape{(*run[R, Row])(nil), n, e.workers, ops.geom()}
	r, _ := takeSpare(shape).(*run[R, Row])
	if r == nil {
		wper := (n + 63) / 64
		r = &run[R, Row]{
			shape: shape,
			slab:  ops.newSlab(),
			inc: &incShared{
				n: n, ver: make([]int32, n*n),
				wordMax: make([]int32, n*wper), wper: wper,
				rowMax:    make([]int32, n),
				hist:      make([]uint64, n*histH*wper),
				histStamp: make([]int32, n*histH),
				scratch:   make([]workerScratch, e.workers),
			},
			lastComp: make([]int32, n),
			chg:      matrix.NewBitsets(n, n),
			actives:  make([]int, 0, n),
			minB:     make([]int32, 0, n),
			taken:    make([]Row, 0, n),
			// One table scratch per worker, grown to the maximum degree
			// by neighbours: activations on the pool's helpers cannot
			// allocate one.
			tabs: make([][]Row, e.workers),
			rowR: [2][]R{make([]R, n), make([]R, n)},
		}
		for w := range r.inc.scratch {
			ws := &r.inc.scratch[w]
			ws.masks, ws.sel = make([]uint64, wper), make([]int32, 0, n)
		}
	} else {
		clear(r.inc.ver)
		clear(r.inc.wordMax)
		clear(r.inc.rowMax)
		clear(r.inc.histStamp)
		for w := range r.inc.scratch {
			r.inc.scratch[w].cells = 0
		}
		// r.chg is clear: the serial fold clears every set bitset before
		// the step that set it returns, and scratch is only ever pooled
		// between steps. hist needs no clearing — stale slots fail their
		// stamp check.
	}
	r.ops = ops
	ops.prepare(r, n)
	r.window = window
	r.stats, r.owed = Stats{}, r.owed[:0]
	if len(r.ring) != window+1 {
		r.ring = make([][]Row, window+1)
		r.repl = make([][]int32, window+1)
		backing := make([]int32, (window+1)*n)
		for slot := range r.repl {
			r.repl[slot] = backing[slot*n : slot*n : (slot+1)*n]
		}
	}
	r.inc.top = 0
	for i := range r.lastComp {
		r.lastComp[i] = -1
	}
	return r
}

// release ends the evaluation: it reclaims the run's history rows and
// headers into its free lists and parks the scratch on the spare list.
// The oldest resident state's rows are all distinct, and every later
// state's own rows are the ones its step replaced, so the ring's distinct
// rows are found without comparing any; everything reclaimed here feeds
// the next run's newRow/newHeader without touching the allocator.
func (r *run[R, Row]) release() {
	// A parked run pins nothing of what it served: not the engine (closed
	// or not), its adjacency, its kernels, the source or the timeline's
	// closures.
	r.e, r.ops, r.sched, r.pw, r.events, r.prev = nil, nil, nil, pointwise{}, nil, nil
	clear(r.kern[:cap(r.kern)])
	r.kern = r.kern[:0]
	clear(r.rowR[0])
	clear(r.rowR[1])
	size, oldest := r.window+1, true
	for age := r.window; age >= 0; age-- {
		slot := ((r.t-age)%size + size) % size
		s := r.ring[slot]
		if s == nil {
			continue
		}
		if oldest {
			r.freeRows = append(r.freeRows, s...)
			oldest = false
		} else {
			for _, i := range r.repl[slot] {
				r.freeRows = append(r.freeRows, s[i])
			}
		}
		r.freeHdrs = append(r.freeHdrs, s)
		r.ring[slot] = nil
	}
	parkSpare(r.shape, r)
}
