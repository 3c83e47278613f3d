package matrix

import (
	"repro/internal/core"
	"repro/internal/paths"
)

// Columnar σ evaluation. A routing table row becomes a pair of packed
// lanes (core.Col): a contiguous []paths.PathID and a contiguous []uint64
// metric lane, W words per destination. SigmaColChanged below is the
// struct-of-arrays analogue of SigmaRowChanged: the same selection
// contract (an ascending sel, nil for the dense form), computed count and
// diagonal handling — but the per-neighbour fold runs through compiled
// core.ColKernels that scan the lanes monomorphically, and change
// detection compares packed words instead of calling an equality
// function per cell.

// ColMeta describes the packed-cell geometry of one columnar algebra:
// metric width, whether cells carry a path-id lane, and the packed images
// of the invalid and trivial routes (the fold identity and the diagonal).
type ColMeta struct {
	W     int
	HasID bool
	InvID paths.PathID
	TrvID paths.PathID
	InvM  []uint64 // W words
	TrvM  []uint64 // W words
}

// ColMetaOf derives the packed geometry of alg from its Columnar
// capability by encoding the invalid and trivial routes once.
func ColMetaOf[R any](alg core.Algebra[R], c core.Columnar[R]) *ColMeta {
	w := c.MetricWords()
	m := &ColMeta{W: w, HasID: c.HasPathLane(), InvM: make([]uint64, w), TrvM: make([]uint64, w)}
	one := core.Col{M: m.InvM}
	var ids [1]paths.PathID
	if m.HasID {
		one.ID = ids[:]
	}
	c.EncodeCol([]R{alg.Invalid()}, one)
	m.InvID = ids[0]
	one.M = m.TrvM
	c.EncodeCol([]R{alg.Trivial()}, one)
	m.TrvID = ids[0]
	return m
}

// ColSlab carves packed lanes out of large shared blocks, the columnar
// analogue of the engine's row slabs: rows allocated together sit
// adjacent in one arena, so a worker sweeping its rows scans
// contiguous memory, and per-row allocations disappear from the steady
// state (the engine pools the slab with its run scratch).
type ColSlab struct {
	W     int
	HasID bool
	ids   []paths.PathID
	ms    []uint64
}

// NewColSlab returns an empty slab for lanes of metric width w.
func NewColSlab(w int, hasID bool) *ColSlab {
	return &ColSlab{W: w, HasID: hasID}
}

// Alloc carves one n-cell row off the slab, reserving reserveRows rows of
// backing store whenever the current block runs out.
func (s *ColSlab) Alloc(n, reserveRows int) core.Col {
	if reserveRows < 1 {
		reserveRows = 1
	}
	var row core.Col
	if s.HasID {
		if len(s.ids) < n {
			s.ids = make([]paths.PathID, n*reserveRows)
		}
		row.ID = s.ids[:n:n]
		s.ids = s.ids[n:]
	}
	nw := n * s.W
	if len(s.ms) < nw {
		s.ms = make([]uint64, nw*reserveRows)
	}
	row.M = s.ms[:nw:nw]
	s.ms = s.ms[nw:]
	return row
}

// SigmaColChanged computes node i's σ-row in packed lanes, the columnar
// twin of SigmaRowChanged:
//
//   - kern[x] is the compiled kernel of node i's x-th in-edge (in-neighbours
//     ascending), and tabs is indexed the same way — tabs[x] is the packed
//     table node i currently sees from that neighbour.
//   - memos[x], when memos is non-nil, is the output memo of that edge,
//     handed to its kernel (core.ColMemo); kernels get nil when the
//     algebra keeps none.
//   - sel is SigmaRowChanged's: when non-nil, the ascending indices of
//     the dirty columns, every other column copied from prev; nil
//     recomputes the whole row (the dense form the engine takes when
//     every column is dirty or the row has no previous value).
//   - changed, when non-nil, receives the columns whose packed cells
//     differ from prev — one word OR per 64 columns, with cell equality a
//     plain word compare thanks to the canonical packing.
//
// Fold order across neighbours matches the generic kernel (position order),
// and the diagonal is overwritten with the trivial cell after the fold,
// so results are bit-identical to the interface path. Returns the number
// of columns recomputed — len(sel), or the row width when dense.
func SigmaColChanged(
	meta *ColMeta, i int, kern []core.ColKernel, memos []core.ColMemo,
	tabs []core.Col, prev, dst core.Col, sel []int32, changed *Bitset,
	scratch *core.ColScratch,
) int {
	w := meta.W
	n := len(dst.M) / w
	if sel != nil {
		// Unchanged columns keep their previous cells; dirty ones restart
		// from the fold identity ∞.
		copy(dst.ID, prev.ID)
		copy(dst.M, prev.M)
		if w == 1 && !meta.HasID {
			inv, dm := meta.InvM[0], dst.M
			for _, j := range sel {
				dm[j] = inv
			}
		} else {
			for _, j := range sel {
				setCell(meta, dst, int(j), meta.InvID, meta.InvM)
			}
		}
	} else if w == 1 && !meta.HasID {
		inv, dm := meta.InvM[0], dst.M
		for x := range dm {
			dm[x] = inv
		}
	} else {
		for j := 0; j < n; j++ {
			setCell(meta, dst, j, meta.InvID, meta.InvM)
		}
	}
	if memos == nil {
		for x, k := range kern {
			k(dst, tabs[x], sel, scratch, nil)
		}
	} else {
		for x, k := range kern {
			k(dst, tabs[x], sel, scratch, &memos[x])
		}
	}
	if sel == nil || selHas(sel, int32(i)) {
		setCell(meta, dst, i, meta.TrvID, meta.TrvM)
	}
	if changed != nil {
		recordColChanged(meta, prev, dst, n, sel, changed)
	}
	if sel != nil {
		return len(sel)
	}
	return n
}

// setCell writes one packed cell (id, W metric words) into row at column j.
func setCell(meta *ColMeta, row core.Col, j int, id paths.PathID, m []uint64) {
	if meta.HasID {
		row.ID[j] = id
	}
	for x, v := range m {
		row.M[j*meta.W+x] = v
	}
}

// selHas reports whether the ascending selection contains j.
func selHas(sel []int32, j int32) bool {
	lo, hi := 0, len(sel)
	for lo < hi {
		mid := (lo + hi) >> 1
		if sel[mid] < j {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo < len(sel) && sel[lo] == j
}

// recordColChanged flushes the selected columns (all n when sel is nil)
// whose packed cells differ between prev and dst into changed — the
// packed twin of recordChanged, with the equality function replaced by
// word compares.
func recordColChanged(meta *ColMeta, prev, dst core.Col, n int, sel []int32, changed *Bitset) {
	var m changeMask
	w := meta.W
	pm, dm := prev.M, dst.M
	scalar := w == 1 && !meta.HasID
	switch {
	case sel == nil && scalar:
		pm, dm = pm[:n], dm[:n]
		for j := range dm {
			if pm[j] != dm[j] {
				m.note(j, changed)
			}
		}
	case sel == nil:
		for j := 0; j < n; j++ {
			if cellDiff(meta, prev, dst, pm, dm, j, w) {
				m.note(j, changed)
			}
		}
	case scalar:
		for _, j := range sel {
			if pm[j] != dm[j] {
				m.note(int(j), changed)
			}
		}
	default:
		for _, j := range sel {
			if cellDiff(meta, prev, dst, pm, dm, int(j), w) {
				m.note(int(j), changed)
			}
		}
	}
	m.flush(changed)
}

// cellDiff reports whether column j's packed cell differs between prev
// and dst.
func cellDiff(meta *ColMeta, prev, dst core.Col, pm, dm []uint64, j, w int) bool {
	if meta.HasID && prev.ID[j] != dst.ID[j] {
		return true
	}
	if w == 1 {
		return pm[j] != dm[j]
	}
	for x := j * w; x < (j+1)*w; x++ {
		if pm[x] != dm[x] {
			return true
		}
	}
	return false
}
