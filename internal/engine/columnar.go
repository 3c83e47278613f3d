package engine

import (
	"reflect"

	"repro/internal/core"
	"repro/internal/matrix"
	"repro/internal/paths"
)

// The columnar row representation. Rows are packed struct-of-arrays lanes
// (core.Col) carved from pooled slabs, and a row is computed through
// kernels compiled once per (edge value, topology generation) — the
// evaluation loop itself is the same run.step and run.activate the
// interface path uses, so scheduling, skipping, dirty selection, change
// tracking and certification are shared line for line and the two paths
// stay bit-identical, Stats included.
//
// When the algebra's kernels memoise (core.EdgeMemoizer), the run owns
// one edge-output memo per edge (core.ColMemo), laid out like the
// kernel table: node i's are memos[nbrOff[i]:nbrOff[i+1]], all carved
// from one pair of lanes. Only node i's activation runs i's kernels, so
// the memos need no lock. Acquiring the scratch empties every entry, so a
// memo never outlives its run; a timeline mutation empties them too,
// since it moves edges in the table and may change their programs.
//
// The run holds its own copy of the kernel table (run.kern, in its pooled
// scratch): the engine's compilation for the start topology, until a
// timeline mutation recompiles the table for the new one.

// colSupport is the compiled columnar backend for one topology
// generation: the packed-cell geometry and the kernel table, laid out
// like the run's flat neighbour lists — node i's kernels are
// kern[nbrOff[i]:nbrOff[i+1]], aligned index for index with
// nbr[nbrOff[i]:nbrOff[i+1]]. memo reports whether the kernels use
// run-owned edge-output memos.
type colSupport[R any] struct {
	alg  core.Algebra[R]
	cap  core.Columnar[R]
	meta *matrix.ColMeta
	kern []core.ColKernel
	memo bool
}

// columnarFor returns the compiled columnar support for the engine's
// algebra and current topology, or nil when the algebra cannot pack or
// any edge fails to compile (the run then takes the interface path).
// The compilation is retained across runs and redone only when the
// adjacency's generation moves — a timeline's mutations move it, but
// recompile into the playing run's own table (colOps.retopo), never into
// this one.
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
	cs := &colSupport[R]{alg: e.alg, cap: c, meta: matrix.ColMetaOf(e.alg, c)}
	if m, ok := e.alg.(core.EdgeMemoizer); ok {
		cs.memo = m.MemoizesEdges()
	}
	edges := 0
	for i := 0; i < e.adj.N; i++ {
		for k := 0; k < e.adj.N; k++ {
			if _, ok := e.adj.Edge(i, k); ok && k != i {
				edges++
			}
		}
	}
	var compiled bool
	if cs.kern, compiled = compileEdges(c, e.adj, make([]core.ColKernel, 0, edges)); !compiled {
		cs = nil
	}
	e.mu.Lock()
	if !e.closed {
		e.colSup, e.colGen, e.colTried = cs, gen, true
	}
	e.mu.Unlock()
	return cs
}

// dedupEdges is how many distinct edge values compileEdges remembers. A
// topology built from one edge value (every scenario's) compiles one
// kernel; one whose every edge differs (arcs, policies) pays this many
// compares an edge, and no more.
const dedupEdges = 8

// compileEdges appends to kern the kernel of every edge of adj in the
// run's neighbour order (node i's in-edges, k ascending), and reports
// whether every edge compiled; an edge that did not has a nil entry. Equal
// comparable edge values share one kernel: a kernel is a pure function of
// its edge value at compile time, and what it keeps per edge is the
// run's (memos, laid out per edge).
func compileEdges[R any](c core.Columnar[R], adj *matrix.Adjacency[R], kern []core.ColKernel) ([]core.ColKernel, bool) {
	type seen struct {
		ed core.Edge[R]
		kn core.ColKernel
	}
	var known [dedupEdges]seen
	nKnown, all := 0, true
	for i := 0; i < adj.N; i++ {
	edges:
		for k := 0; k < adj.N; k++ {
			ed, ok := adj.Edge(i, k)
			if !ok || k == i {
				continue
			}
			// Only comparable values are remembered, so == below never
			// meets two values of one incomparable dynamic type.
			for _, s := range known[:nKnown] {
				if s.ed == ed {
					kern = append(kern, s.kn)
					continue edges
				}
			}
			kn := c.CompileEdge(ed)
			all = all && kn != nil
			if kn != nil && nKnown < dedupEdges && reflect.ValueOf(ed).Comparable() {
				known[nKnown] = seen{ed, kn}
				nKnown++
			}
			kern = append(kern, kn)
		}
	}
	return kern, all
}

// interfaceKernel is the packed form of an edge with no compiled one.
// Start picks packed lanes only when every edge compiles, but a timeline
// mutation may install one that does not: the run keeps its lanes and
// folds that edge through the interface — decode, Choice(dst, e(src)),
// encode — cell for cell what the interface path computes.
func interfaceKernel[R any](alg core.Algebra[R], c core.Columnar[R], w int, e core.Edge[R]) core.ColKernel {
	return func(dst, src core.Col, sel []int32, _ *core.ColScratch, _ *core.ColMemo) {
		n := len(dst.M) / w
		s, d := make([]R, n), make([]R, n)
		c.DecodeCol(src, s)
		c.DecodeCol(dst, d)
		if sel == nil {
			for j := range d {
				d[j] = alg.Choice(d[j], e.Apply(s[j]))
			}
		} else {
			for _, j := range sel {
				d[j] = alg.Choice(d[j], e.Apply(s[j]))
			}
		}
		c.EncodeCol(d, dst)
	}
}

// colSlab adapts matrix.ColSlab to the generic rowSlab interface.
type colSlab struct{ s *matrix.ColSlab }

func (s colSlab) carve(n int) core.Col { return s.s.Alloc(n, slabRows) }

// colOps is the packed row representation. One pointer, so that boxing
// it in the run's rowOps allocates nothing.
type colOps[R any] struct{ cs *colSupport[R] }

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

// prepare takes the run's copy of the kernel table and lays out its
// edge-output memos.
func (o colOps[R]) prepare(r *run[R, core.Col], n int) {
	r.kern = append(r.kern[:0], o.cs.kern...)
	o.resetMemos(r, n)
}

// retopo recompiles the run's kernel table for the adjacency a timeline
// mutation just edited, into the run's own backing, and empties every
// memo: an edge's position in the table, and maybe its program, moved.
func (o colOps[R]) retopo(r *run[R, core.Col]) {
	adj := r.e.adj
	r.kern, _ = compileEdges(o.cs.cap, adj, r.kern[:0])
	for i := 0; i < r.n; i++ {
		for x := r.nbrOff[i]; x < r.nbrOff[i+1]; x++ {
			if r.kern[x] == nil {
				ed, _ := adj.Edge(i, int(r.nbr[x]))
				r.kern[x] = interfaceKernel(o.cs.alg, o.cs.cap, o.cs.meta.W, ed)
			}
		}
	}
	o.resetMemos(r, r.n)
}

// resetMemos lays out the run's edge-output memos (run.memos, per edge
// like run.kern), every key empty, when the kernels keep them: whatever
// the lanes last held belongs to another run or another table.
func (o colOps[R]) resetMemos(r *run[R, core.Col], n int) {
	if !o.cs.memo {
		return
	}
	edges, w := len(r.kern), o.cs.meta.W
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

func (o colOps[R]) encodeRow(dst core.Col, src []R) { o.cs.cap.EncodeCol(src, dst) }

func (o colOps[R]) decodeRow(dst []R, src core.Col) { o.cs.cap.DecodeCol(src, dst) }

func (o colOps[R]) sigma(r *run[R, core.Col], i int, sel []int32, worker int) int {
	lo, hi := r.nbrOff[i], r.nbrOff[i+1]
	var memo []core.ColMemo
	if o.cs.memo {
		memo = r.memos[lo:hi]
	}
	return matrix.SigmaColChanged(o.cs.meta, i, r.kern[lo:hi], memo, r.tabs[worker][:hi-lo], r.prev[i], r.cur[i], sel, &r.chg[i], &r.inc.scratch[worker].col)
}
