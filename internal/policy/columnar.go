package policy

import (
	"repro/internal/core"
	"repro/internal/paths"
)

// Columnar packing for the Section 7 policy algebra. An interned route
// packs into the PathID lane plus two metric words:
//
//	w0 = LPref<<32 | plen<<8 | Pad      w1 = Comms
//
// with the invalid route encoded as (InvalidID, ^0, ^0). The packing is
// canonical for Equal — plen is determined by the id, Pad and LPref
// fit their fields, and path lengths stay far below 2²⁴ (paths are simple,
// so length is bounded by the node count) — which is all the change
// tracking needs. Unlike the scalar algebras the packed words are NOT
// order-monotone; the compiled kernel instead runs the Section 7 decision
// procedure explicitly on the packed fields, with the batched ExtendSel
// doing path extension for the cells that need it: one read lock and one
// arc lookup per call, then one probe of the arc's open-addressed index
// per cell, cached loop verdicts included. An inPath condition is one
// test of the path's exact node set in the table, at any node count.
//
// The kernel is memoised (core.EdgeMemoizer). Its edge is a pure
// function of the full packed source cell (id, w0, w1) — extension by a
// fixed arc in an append-only table, then a fixed program — so a source
// cell equal, all three words, to the one the same edge saw in the same
// column last time has the same output, and the kernel folds it from the
// run-owned core.ColMemo without extending or interpreting anything. The
// memo is keyed on the whole cell, never the id alone: w0 and w1 carry
// the preference, padding and communities the program reads. On the
// policy workload most valid sources repeat between one call of an edge
// and the next, and a call whose sources all repeat takes no lock.

const (
	polInvW  = ^uint64(0)
	plenMask = (uint64(1) << 24) - 1
)

// packW0 packs the non-path attributes of a valid route.
func packW0(lp uint32, plen int32, pad uint8) uint64 {
	return uint64(lp)<<32 | (uint64(plen)&plenMask)<<8 | uint64(pad)
}

// ColumnarOK implements core.Columnar.
func (*Interned) ColumnarOK() bool { return true }

// MetricWords implements core.Columnar: two words per cell.
func (*Interned) MetricWords() int { return 2 }

// HasPathLane implements core.Columnar.
func (*Interned) HasPathLane() bool { return true }

// EncodeCol implements core.Columnar.
func (*Interned) EncodeCol(src []IRoute, dst core.Col) {
	ids, m := dst.ID[:len(src)], dst.M
	for x, r := range src {
		if r.invalid {
			ids[x] = paths.InvalidID
			m[2*x], m[2*x+1] = polInvW, polInvW
			continue
		}
		ids[x] = r.ID
		m[2*x], m[2*x+1] = packW0(r.LPref, r.plen, r.Pad), uint64(r.Comms)
	}
}

// DecodeCol implements core.Columnar.
func (*Interned) DecodeCol(src core.Col, dst []IRoute) {
	ids, m := src.ID[:len(dst)], src.M
	for x := range dst {
		id := ids[x]
		if id.IsInvalid() {
			dst[x] = InvalidIRoute
			continue
		}
		w0 := m[2*x]
		dst[x] = IRoute{
			LPref: uint32(w0 >> 32),
			Comms: CommunitySet(m[2*x+1]),
			ID:    id,
			Pad:   uint8(w0),
			plen:  int32((w0 >> 8) & plenMask),
		}
	}
}

// MemoizesEdges implements core.EdgeMemoizer: the kernel below is a pure
// function of the full source cell, given the append-only path table.
func (*Interned) MemoizesEdges() bool { return true }

// CompileEdge implements core.Columnar for the edges built by Edge. Any
// policy program compiles — the kernel reuses the concrete interpreter —
// so the whole Section 7 language runs columnar.
//
// The kernel makes three passes over its selection. The first drops
// invalid sources and folds every source equal to the memo's key straight
// from the memo's output. The second extends only the misses, in one
// ExtendSel batch, and is skipped (read lock included) when there are
// none. The third runs the policy on each miss, records the source and
// its output (InvalidID for ∞) in the memo, and folds. Each column is
// folded once, so the cells are those of the memo-free fold.
func (t *Interned) CompileEdge(e core.Edge[IRoute]) core.ColKernel {
	pe, ok := e.(*polEdge)
	if !ok || pe.t != t {
		return nil
	}
	tab, i, j, pol := t.Tab, pe.i, pe.j, pe.pol
	return func(dst, src core.Col, sel []int32, s *core.ColScratch, memo *core.ColMemo) {
		n := len(src.ID)
		s.Grow(n, 1)
		if cap(s.Sel) < n {
			s.Sel = make([]int32, 0, n)
		}
		ext, miss := s.ID, s.Sel[:0] // miss never outgrows its capacity n
		sid, sm := src.ID, src.M
		did, dm := dst.ID, dst.M
		var mid []paths.PathID // column x: key at 2x, output at 2x+1
		var mm []uint64
		memoised := memo != nil
		if memoised {
			mid, mm = memo.ID, memo.M
		}
		// fold is ⊕ of a valid packed candidate into column x: the
		// decision procedure against the packed incumbent, ties keeping
		// the incumbent like the interface Choice.
		fold := func(x int, id paths.PathID, w0, w1 uint64) {
			if d := did[x]; !d.IsInvalid() && cmpPacked(tab, id, w0, w1, d, dm[2*x], dm[2*x+1]) >= 0 {
				return
			}
			did[x] = id
			dm[2*x], dm[2*x+1] = w0, w1
		}
		probe := func(x int) {
			id := sid[x]
			if id.IsInvalid() {
				return // folding ∞ is a no-op
			}
			if memoised && mid[2*x] == id && mm[4*x] == sm[2*x] && mm[4*x+1] == sm[2*x+1] {
				if o := mid[2*x+1]; !o.IsInvalid() {
					fold(x, o, mm[4*x+2], mm[4*x+3])
				}
				return
			}
			miss = append(miss, int32(x))
		}
		if sel == nil {
			for x := range sid {
				probe(x)
			}
		} else {
			for _, x := range sel {
				probe(int(x))
			}
		}
		if len(miss) == 0 {
			return
		}
		tab.ExtendSel(sid, ext, miss, i, j)
		for _, x32 := range miss {
			x := int(x32)
			w0, w1 := sm[2*x], sm[2*x+1]
			rid, rw0, rw1 := paths.InvalidID, polInvW, polInvW
			if nid := ext[x]; !nid.IsInvalid() { // else the extension loops
				r := t.apply(pol, IRoute{
					LPref: uint32(w0 >> 32),
					Comms: CommunitySet(w1),
					ID:    nid,
					Pad:   uint8(w0),
					plen:  int32((w0>>8)&plenMask) + 1,
				})
				if !r.invalid {
					rid, rw0, rw1 = r.ID, packW0(r.LPref, r.plen, r.Pad), uint64(r.Comms)
				}
			}
			if memoised {
				mid[2*x], mid[2*x+1] = sid[x], rid
				mm[4*x], mm[4*x+1], mm[4*x+2], mm[4*x+3] = w0, w1, rw0, rw1
			}
			if !rid.IsInvalid() {
				fold(x, rid, rw0, rw1)
			}
		}
	}
}

// cmpPacked runs the Section 7 decision procedure between two valid
// packed cells, a candidate (rid, rw0, rw1) and an incumbent (did, dw0,
// dw1), returning the sign of Compare(candidate, incumbent).
func cmpPacked(tab *paths.Table, rid paths.PathID, rw0, rw1 uint64, did paths.PathID, dw0, dw1 uint64) int {
	rLP, dLP := uint32(rw0>>32), uint32(dw0>>32)
	switch {
	case rLP < dLP:
		return -1
	case rLP > dLP:
		return 1
	}
	rPad, dPad := uint8(rw0), uint8(dw0)
	rEff := int((rw0>>8)&plenMask) + int(rPad)
	dEff := int((dw0>>8)&plenMask) + int(dPad)
	switch {
	case rEff < dEff:
		return -1
	case rEff > dEff:
		return 1
	}
	if d := tab.Compare(rid, did); d != 0 {
		return d
	}
	switch {
	case rw1 < dw1: // the community sets, as CommunitySet compares them
		return -1
	case rw1 > dw1:
		return 1
	case rPad < dPad:
		return -1
	case rPad > dPad:
		return 1
	}
	return 0
}
