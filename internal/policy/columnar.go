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
// procedure explicitly on the decoded fields, with the batched ExtendSel
// doing path extension for the whole column: one read lock and one arc
// lookup per call, then one probe of the arc's open-addressed index per
// cell, cached loop verdicts included. An inPath condition is one test of
// the path's exact node set in the table, at any node count.

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

// CompileEdge implements core.Columnar for the edges built by Edge. Any
// policy program compiles — the kernel reuses the concrete interpreter —
// so the whole Section 7 language runs columnar.
func (t *Interned) CompileEdge(e core.Edge[IRoute]) core.ColKernel {
	pe, ok := e.(*polEdge)
	if !ok || pe.t != t {
		return nil
	}
	tab, i, j, pol := t.Tab, pe.i, pe.j, pe.pol
	return func(dst, src core.Col, sel []int32, s *core.ColScratch) {
		s.Grow(len(src.ID), 1)
		ext := s.ID
		tab.ExtendSel(src.ID, ext, sel, i, j)
		dm, sm := dst.M, src.M
		did := dst.ID
		fold := func(x int) {
			nid := ext[x]
			if nid.IsInvalid() {
				return // source invalid, or the extension loops
			}
			w0 := sm[2*x]
			r := t.apply(pol, IRoute{
				LPref: uint32(w0 >> 32),
				Comms: CommunitySet(sm[2*x+1]),
				ID:    nid,
				Pad:   uint8(w0),
				plen:  int32((w0>>8)&plenMask) + 1,
			})
			if r.invalid {
				return // folding ∞ is a no-op
			}
			// ⊕ by the decision procedure against the packed incumbent;
			// ties keep the incumbent, like the interface Choice.
			if d := did[x]; !d.IsInvalid() {
				dw0 := dm[2*x]
				if better := cmpSteps(t, r, d, dw0, dm[2*x+1]); better >= 0 {
					return
				}
			}
			did[x] = r.ID
			dm[2*x], dm[2*x+1] = packW0(r.LPref, r.plen, r.Pad), uint64(r.Comms)
		}
		if sel == nil {
			for x := range ext {
				fold(x)
			}
			return
		}
		for _, x := range sel {
			fold(int(x))
		}
	}
}

// cmpSteps runs the Section 7 decision procedure between a valid
// candidate r and a valid packed incumbent (did, dw0, dw1), returning the
// sign of Compare(r, incumbent).
func cmpSteps(t *Interned, r IRoute, did paths.PathID, dw0, dw1 uint64) int {
	dLP := uint32(dw0 >> 32)
	switch {
	case r.LPref < dLP:
		return -1
	case r.LPref > dLP:
		return 1
	}
	dPad := uint8(dw0)
	dPlen := int32((dw0 >> 8) & plenMask)
	rEff, dEff := int(r.plen)+int(r.Pad), int(dPlen)+int(dPad)
	switch {
	case rEff < dEff:
		return -1
	case rEff > dEff:
		return 1
	}
	if d := t.Tab.Compare(r.ID, did); d != 0 {
		return d
	}
	dComms := CommunitySet(dw1)
	switch {
	case r.Comms < dComms:
		return -1
	case r.Comms > dComms:
		return 1
	case r.Pad < dPad:
		return -1
	case r.Pad > dPad:
		return 1
	}
	return 0
}
