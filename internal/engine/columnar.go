package engine

import (
	"repro/internal/core"
	"repro/internal/matrix"
)

// The columnar row representation. Rows are packed struct-of-arrays lanes
// (core.Col) carved from pooled slabs, and row tasks run through kernels
// compiled once per (edge, topology generation) — the evaluation loop
// itself is the same run.step the interface path uses, so scheduling,
// skipping, change tracking and certification are shared line for line
// and the two paths stay bit-identical, Stats included.

// colSupport is the compiled columnar backend for one topology
// generation: the packed-cell geometry and the kernel table, laid out
// like the run's flat neighbour lists — node i's kernels are
// kern[off[i]:off[i+1]], aligned index for index with nbr[off[i]:off[i+1]].
type colSupport[R any] struct {
	cap  core.Columnar[R]
	meta *matrix.ColMeta
	kern []core.ColKernel
	off  []int32
}

// columnarFor returns the compiled columnar support for the engine's
// algebra and current topology, or nil when the algebra cannot pack or
// any edge fails to compile (the run then stays on the interface path).
// The compilation is retained across runs and redone only when the
// adjacency's generation moves.
func (e *Engine[R]) columnarFor() *colSupport[R] {
	c, ok := e.alg.(core.Columnar[R])
	if !ok || !c.ColumnarOK() {
		return nil
	}
	gen := e.adj.Generation()
	e.mu.Lock()
	if e.colTried && e.colGen == gen {
		cs := e.colSup
		e.mu.Unlock()
		return cs
	}
	e.mu.Unlock()
	n := e.adj.N
	cs := &colSupport[R]{cap: c, meta: matrix.ColMetaOf(e.alg, c), off: make([]int32, n+1)}
	compiled := true
compile:
	for i := 0; i < n; i++ {
		cs.off[i] = int32(len(cs.kern))
		for k := 0; k < n; k++ {
			if k == i {
				continue
			}
			if ed, ok := e.adj.Edge(i, k); ok {
				kn := c.CompileEdge(ed)
				if kn == nil {
					compiled = false
					break compile
				}
				cs.kern = append(cs.kern, kn)
			}
		}
	}
	cs.off[n] = int32(len(cs.kern))
	if !compiled {
		cs = nil
	}
	e.mu.Lock()
	if !e.closed {
		e.colSup, e.colGen, e.colTried = cs, gen, true
	}
	e.mu.Unlock()
	return cs
}

// colWS is one worker's columnar scratch: the dirty-selection vector and
// the kernel staging lanes (batched ExtendSel results land there).
type colWS struct {
	sel     []int32
	scratch core.ColScratch
}

// colSlab adapts matrix.ColSlab to the generic rowSlab interface.
type colSlab struct{ s *matrix.ColSlab }

func (s colSlab) carve(n int) core.Col { return s.s.Alloc(n, slabRows) }

// colOps is the packed row representation. It is a pointer type because
// prepare caches the run's per-worker scratch on it for runTask.
type colOps[R any] struct {
	e   *Engine[R]
	cs  *colSupport[R]
	cws []colWS
}

// geom: pooled lanes and slabs are reusable only at the same cell layout.
func (o *colOps[R]) geom() int {
	if o.cs.meta.HasID {
		return -o.cs.meta.W
	}
	return o.cs.meta.W
}

func (o *colOps[R]) newSlab() rowSlab[core.Col] {
	return colSlab{matrix.NewColSlab(o.cs.meta.W, o.cs.meta.HasID)}
}

func (o *colOps[R]) prepare(r *run[R, core.Col], n int) {
	if len(r.cws) != o.e.workers {
		r.cws = make([]colWS, o.e.workers)
	}
	for w := range r.cws {
		if cap(r.cws[w].sel) < n {
			r.cws[w].sel = make([]int32, 0, n)
		}
	}
	o.cws = r.cws
}

func (o *colOps[R]) encodeRow(dst core.Col, src []R) { o.cs.cap.EncodeCol(src, dst) }

func (o *colOps[R]) copySpan(dst, src core.Col, j0, j1 int) {
	if o.cs.meta.HasID {
		copy(dst.ID[j0:j1], src.ID[j0:j1])
	}
	w := o.cs.meta.W
	copy(dst.M[j0*w:j1*w], src.M[j0*w:j1*w])
}

func (o *colOps[R]) emptyRow(a core.Col) bool { return len(a.M) == 0 }

func (o *colOps[R]) sameRow(a, b core.Col) bool { return &a.M[0] == &b.M[0] }

func (o *colOps[R]) materialise(s []core.Col) *matrix.State[R] {
	st := matrix.NewState(len(s), o.e.alg.Invalid())
	for i, row := range s {
		o.cs.cap.DecodeCol(row, st.RowView(i))
	}
	return st
}

// runTask is the columnar twin of genOps.runTask: same dirty resolution
// (shared resolveDirty), same dense/sparse/copy trichotomy, with the
// kernel fold running over packed lanes. The dirty bitset is materialised
// into a selection vector because the kernels — one pass per neighbour —
// would otherwise re-walk the bit words per edge.
func (o *colOps[R]) runTask(tk *rowTask[R, core.Col], worker int) {
	cs := o.cs
	kern := cs.kern[cs.off[tk.i]:cs.off[tk.i+1]]
	cw := &o.cws[worker]
	ws := &tk.inc.scratch[worker]
	if tk.lo == nil {
		ws.cells += matrix.SigmaColSpanChanged(cs.meta, tk.i, tk.nbr, kern, tk.tabs, tk.prev, tk.dst, tk.j0, tk.j1, nil, tk.chg, &cw.scratch)
		return
	}
	sel := resolveDirtySel(tk.inc, tk.nbr, tk.lo, tk.j0, tk.j1, ws, cw.sel[:0])
	cw.sel = sel[:0]
	if len(sel) == 0 {
		o.copySpan(tk.dst, tk.prev, tk.j0, tk.j1)
		return
	}
	if len(sel) == tk.j1-tk.j0 {
		// Everything dirty: the dense kernel loops beat sel indirection.
		sel = nil
	}
	ws.cells += matrix.SigmaColSpanChanged(cs.meta, tk.i, tk.nbr, kern, tk.tabs, tk.prev, tk.dst, tk.j0, tk.j1, sel, tk.chg, &cw.scratch)
}
