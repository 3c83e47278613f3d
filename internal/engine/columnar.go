package engine

import (
	"repro/internal/core"
	"repro/internal/matrix"
	"repro/internal/paths"
)

// The columnar row representation. Rows are packed struct-of-arrays lanes
// (core.Col) carved from pooled slabs, and a row is computed through
// kernels compiled once per (edge, topology generation) — the evaluation
// loop itself is the same run.step and run.activate the interface path
// uses, so scheduling, skipping, dirty selection, change tracking and
// certification are shared line for line and the two paths stay
// bit-identical, Stats included.
//
// When the algebra's kernels memoise (core.EdgeMemoizer), the run owns
// one edge-output memo per edge (core.ColMemo), laid out like the
// kernel table: node i's are memos[off[i]:off[i+1]], all carved from one
// pair of lanes. Only node i's activation runs i's kernels, so the memos
// need no lock; acquiring the scratch empties every entry, so a memo
// never outlives its run.

// colSupport is the compiled columnar backend for one topology
// generation: the packed-cell geometry and the kernel table, laid out
// like the run's flat neighbour lists — node i's kernels are
// kern[off[i]:off[i+1]], aligned index for index with nbr[off[i]:off[i+1]].
// memo reports whether the kernels use run-owned edge-output memos.
type colSupport[R any] struct {
	cap  core.Columnar[R]
	meta *matrix.ColMeta
	kern []core.ColKernel
	off  []int32
	memo bool
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
	if m, ok := e.alg.(core.EdgeMemoizer); ok {
		cs.memo = m.MemoizesEdges()
	}
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

// colSlab adapts matrix.ColSlab to the generic rowSlab interface.
type colSlab struct{ s *matrix.ColSlab }

func (s colSlab) carve(n int) core.Col { return s.s.Alloc(n, slabRows) }

// colOps is the packed row representation.
type colOps[R any] struct {
	e  *Engine[R]
	cs *colSupport[R]
}

// geom: pooled lanes and slabs are reusable only at the same cell layout.
func (o colOps[R]) geom() int {
	if o.cs.meta.HasID {
		return -o.cs.meta.W
	}
	return o.cs.meta.W
}

func (o colOps[R]) newSlab() rowSlab[core.Col] {
	return colSlab{matrix.NewColSlab(o.cs.meta.W, o.cs.meta.HasID)}
}

// prepare lays out the run's edge-output memos (run.memos, per edge like
// cs.kern) when the kernels keep them.
func (o colOps[R]) prepare(r *run[R, core.Col], n int) {
	if o.cs.memo {
		// One memo per edge, every key empty: whatever the lanes last
		// held belongs to another run, maybe of another table.
		edges, w := len(o.cs.kern), o.cs.meta.W
		if len(r.memo.ID) < 2*edges*n {
			r.memo = core.ColMemo{ID: make([]paths.PathID, 2*edges*n), M: make([]uint64, 2*edges*n*w)}
		}
		ids := r.memo.ID[:2*edges*n]
		for x := range ids {
			ids[x] = paths.InvalidID
		}
		r.memos = r.memos[:0]
		for k := range edges {
			r.memos = append(r.memos, r.memo.Slice(k*n, (k+1)*n, w))
		}
	}
}

func (o colOps[R]) encodeRow(dst core.Col, src []R) { o.cs.cap.EncodeCol(src, dst) }

func (o colOps[R]) materialise(s []core.Col) *matrix.State[R] {
	st := matrix.NewState(len(s), o.e.alg.Invalid())
	for i, row := range s {
		o.cs.cap.DecodeCol(row, st.RowView(i))
	}
	return st
}

func (o colOps[R]) sigma(r *run[R, core.Col], i int, sel []int32, worker int) int {
	cs := o.cs
	lo, hi := cs.off[i], cs.off[i+1]
	var memo []core.ColMemo
	if cs.memo {
		memo = r.memos[lo:hi]
	}
	nb := r.nbr[r.nbrOff[i]:r.nbrOff[i+1]]
	return matrix.SigmaColChanged(cs.meta, i, nb, cs.kern[lo:hi], memo, r.tabs[i], r.prev[i], r.cur[i], sel, &r.chg[i], &r.inc.scratch[worker].col)
}
