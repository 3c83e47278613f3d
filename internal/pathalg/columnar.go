package pathalg

import "repro/internal/core"

// Columnar packing for the interned path algebra. When the base algebra
// implements core.MetricPacker — its routes pack canonically into one
// preference-ordered uint64 — an IRoute[B] cell packs into exactly the
// struct-of-arrays pair the columnar σ kernel wants: the PathID lane plus
// a one-word metric lane. The compiled edge kernel then runs the whole
// dirty column in three monomorphic passes: a single batched ExtendSel
// against the intern table (one read lock and one arc lookup per edge per
// row, then one id probe per cell, cached loop verdicts included), the
// compiled base edge over the metric lane, and the ⊕ fold, whose
// base-preference step is an integer compare with ties falling through
// to the interned path order.

// packer returns the base algebra's metric packer, if any.
func (t *Interned[B]) packer() (core.MetricPacker[B], bool) {
	p, ok := t.Base.(core.MetricPacker[B])
	return p, ok
}

// ColumnarOK implements core.Columnar: the lift packs exactly when the
// base algebra does.
func (t *Interned[B]) ColumnarOK() bool {
	_, ok := t.packer()
	return ok
}

// MetricWords implements core.Columnar.
func (*Interned[B]) MetricWords() int { return 1 }

// HasPathLane implements core.Columnar.
func (*Interned[B]) HasPathLane() bool { return true }

// EncodeCol implements core.Columnar. Cells are normalised as they are
// packed, so packed equality coincides with Equal: the id lanes compare
// as ids, and the base packing is injective up to Base.Equal.
func (t *Interned[B]) EncodeCol(src []IRoute[B], dst core.Col) {
	p, _ := t.packer()
	ids, m := dst.ID[:len(src)], dst.M[:len(src)]
	for x, r := range src {
		r = t.normalise(r)
		ids[x] = r.ID
		m[x] = p.PackMetric(r.Base)
	}
}

// DecodeCol implements core.Columnar.
func (t *Interned[B]) DecodeCol(src core.Col, dst []IRoute[B]) {
	p, _ := t.packer()
	ids, m := src.ID[:len(dst)], src.M[:len(dst)]
	for x := range dst {
		dst[x] = IRoute[B]{Base: p.UnpackMetric(m[x]), ID: ids[x]}
	}
}

// CompileEdge implements core.Columnar for the arc edges built by Edge.
func (t *Interned[B]) CompileEdge(e core.Edge[IRoute[B]]) core.ColKernel {
	ae, ok := e.(*arcEdge[B])
	if !ok || ae.t != t {
		return nil
	}
	p, ok := t.packer()
	if !ok {
		return nil
	}
	mf := p.CompileMetricEdge(ae.base)
	if mf == nil {
		return nil
	}
	invM := p.PackMetric(t.Base.Invalid())
	tab, i, j := t.Tab, ae.i, ae.j
	return func(dst, src core.Col, sel []int32, s *core.ColScratch, _ *core.ColMemo) {
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
			nm := mf(sm[x])
			if nm == invM {
				return // base edge rejected: folding ∞ is a no-op
			}
			// ⊕: base preference as packed compare, the interned path
			// order as the tie-break; ties keep the incumbent like the
			// interface Choice.
			if nm < dm[x] || (nm == dm[x] && tab.Compare(nid, did[x]) < 0) {
				dm[x] = nm
				did[x] = nid
			}
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
