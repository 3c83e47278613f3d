// Columnar evaluation capabilities. An algebra whose routes already
// intern their variable-length components (hash-consed paths) can usually be
// packed further: one route becomes a (paths.PathID, fixed number of
// uint64 metric words) cell, and a whole routing table becomes a
// struct-of-arrays pair of contiguous lanes. The σ kernels then stop
// chasing interface values cell by cell: an edge is compiled once into a
// ColKernel that applies the edge AND folds ⊕ across an entire dirty
// column in a tight, monomorphic loop, and change tracking becomes
// word compares on the packed lanes.
//
// The capability is detected by type assertion: the engine goes columnar
// only when the algebra implements Columnar, reports ColumnarOK, and every
// edge of the topology compiles; otherwise evaluation stays on the general
// interface path, which remains the differential oracle for the packed
// one. A second, optional capability (EdgeMemoizer) gives each edge's
// kernel a run-owned output memo (ColMemo), so that a source cell the
// edge has already seen in that column costs a compare.
package core

import "repro/internal/paths"

// Col is a struct-of-arrays view of one packed routing table: cell j is
// the pair (ID[j], M[j*W : (j+1)*W]) for the algebra's metric width W.
// Algebras without a path component leave ID nil and the kernels never
// touch it — the metric lane alone is the cell.
type Col struct {
	// ID is the interned-path lane, one id per destination; nil when the
	// algebra's Columnar capability reports HasPathLane() == false.
	ID []paths.PathID
	// M is the packed metric lane, W words per destination.
	M []uint64
}

// ColScratch is per-worker workspace a ColKernel may use freely: a spare
// lane pair at least as long as the column being processed, and a spare
// selection. Kernels that batch table operations (e.g.
// paths.Table.ExtendSel) stage results here so the fold loop that
// follows runs without locks.
type ColScratch struct {
	ID  []paths.PathID
	M   []uint64
	Sel []int32 // grown by the kernel that uses it
}

// Grow ensures the scratch covers n cells of metric width w.
func (s *ColScratch) Grow(n, w int) {
	if cap(s.ID) < n {
		s.ID = make([]paths.PathID, n)
	}
	s.ID = s.ID[:n]
	if cap(s.M) < n*w {
		s.M = make([]uint64, n*w)
	}
	s.M = s.M[:n*w]
}

// ColKernel is one edge compiled against one algebra's packed cell
// layout: it applies the edge to the source lane and folds the result
// into the destination lane under ⊕,
//
//	dst[j] = dst[j] ⊕ e(src[j]),
//
// for j ∈ sel when sel is non-nil (column indices, ascending), or for
// every column of the row when sel is nil (the dense form). Kernels must
// be safe for concurrent use across distinct dst rows and must produce
// cells bit-identical to encoding the interface path's Choice/Apply
// results — the columnar driver compares lanes word for word when
// tracking changes.
//
// memo is the edge's output memo (ColMemo), nil when the algebra keeps
// none; kernels of algebras that do not implement EdgeMemoizer ignore
// it.
type ColKernel func(dst, src Col, sel []int32, scratch *ColScratch, memo *ColMemo)

// ColMemo is one edge's output memo: for each column j, a key — the
// last source cell the edge's kernel computed there — and the edge's
// output for it, the packed invalid cell when the edge maps it to ∞.
// Both are packed cells, interleaved so that a column's pair is
// adjacent: the key is (ID[2j], M[2jW : (2j+1)W]) and the output
// (ID[2j+1], M[(2j+1)W : (2j+2)W]) for the algebra's metric width W. A
// kernel folds a valid source equal to its key — id and every metric
// word — straight from the output, and computes only the others,
// rewriting their entries. That is sound exactly when the edge is a pure
// function of the full packed source cell, so only algebras whose
// kernels are (EdgeMemoizer) get one.
//
// The memo is run-owned: kernels are shared by an engine's concurrent
// runs, so the lanes live with the run's scratch, and only the
// activation of the edge's destination node writes them. A key whose id
// is invalid is the empty key: kernels drop invalid sources before
// consulting the memo, so it matches nothing, and the engine resets
// every key to it when a run acquires its scratch (ids from another
// run's table mean nothing here). A memo is not part of a snapshot; a
// resumed run starts cold.
type ColMemo struct {
	ID []paths.PathID
	M  []uint64
}

// Slice returns the entries of columns [lo, hi) for metric width w.
func (m ColMemo) Slice(lo, hi, w int) ColMemo {
	return ColMemo{ID: m.ID[2*lo : 2*hi : 2*hi], M: m.M[2*lo*w : 2*hi*w : 2*hi*w]}
}

// EdgeMemoizer is the optional capability of a Columnar algebra whose
// compiled kernels are pure in the full packed source cell and use the
// edge-output memo. The engine allocates memo lanes — an n-column memo
// per edge, pooled with the run scratch — only for an algebra that
// reports MemoizesEdges; every other kernel gets a nil memo.
type EdgeMemoizer interface {
	MemoizesEdges() bool
}

// Columnar is implemented by algebras whose routes pack into fixed-width
// cells, enabling the struct-of-arrays σ kernel. The packing must be
// canonical and injective up to Equal: two routes are Equal exactly when
// their packed cells are identical words — the driver's change tracking
// relies on it. (Kernel outputs are canonical by the same argument that
// lets matrix.SigmaRowChanged copy-compare: Choice and the edge
// functions normalise as they go.)
type Columnar[R any] interface {
	// ColumnarOK reports whether this algebra instance can actually pack
	// its cells (e.g. an interned path algebra needs its base algebra to
	// implement MetricPacker). When false the remaining methods may not
	// be called.
	ColumnarOK() bool
	// MetricWords is W, the number of uint64 words per cell's metric.
	MetricWords() int
	// HasPathLane reports whether cells carry an interned-path id; when
	// false the engine allocates no ID lanes at all.
	HasPathLane() bool
	// EncodeCol packs src into dst (which must have the right geometry);
	// DecodeCol is its inverse. Both are batch operations so the
	// conversion at run boundaries stays monomorphic.
	EncodeCol(src []R, dst Col)
	DecodeCol(src Col, dst []R)
	// CompileEdge returns the batched kernel of e, or nil when e has no
	// compiled form (the engine then falls back to the interface path for
	// the whole topology).
	CompileEdge(e Edge[R]) ColKernel
}

// MetricFn is a base-algebra edge compiled to packed form: it maps a
// packed metric to the packed result, returning the algebra's packed
// invalid metric for any input or result that the interface edge would
// collapse to the invalid route.
type MetricFn func(m uint64) uint64

// MetricPacker is implemented by scalar algebras whose carrier packs
// canonically into a single uint64 word. The packing must be injective
// and strictly monotone in the preference order induced by ⊕ — a more
// preferred route packs strictly lower — with the invalid route packing
// strictly above every valid route. Interned path algebras lift a
// MetricPacker base into a full Columnar implementation: the packed
// order makes ⊕'s base-preference step an integer compare, and ties fall
// through to the interned path order.
type MetricPacker[B any] interface {
	PackMetric(b B) uint64
	UnpackMetric(m uint64) B
	// CompileMetricEdge returns the packed form of e, or nil when e has
	// no compiled form.
	CompileMetricEdge(e Edge[B]) MetricFn
}
