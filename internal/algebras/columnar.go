package algebras

import "repro/internal/core"

// Columnar packing for the scalar ℕ∞ algebras. A NatInf route packs into
// one uint64 word as its (canonical, clamped) numeric value: the carrier
// is ℕ∞, so packed unsigned order coincides with numeric order, ∞ packs
// strictly greatest, and ⊕ = min becomes an integer compare. Both
// HopCount and ShortestPaths implement core.Columnar — cells have no path
// component, so the struct-of-arrays layout is a bare metric lane — and
// core.MetricPacker, which lets pathalg.Interned lift them into columnar
// path-tracking algebras. The max-oriented Table 2 algebras (longest,
// widest) invert the preference order and stay on the interface path.

// packInf is the packed image of ∞ (and the supremum of the packed
// order: every valid metric packs strictly below it).
const packInf = uint64(Inf)

// --- HopCount ---------------------------------------------------------

// ColumnarOK implements core.Columnar: hop-count cells always pack.
func (HopCount) ColumnarOK() bool { return true }

// MetricWords implements core.Columnar: one word per cell.
func (HopCount) MetricWords() int { return 1 }

// HasPathLane implements core.Columnar: no path component.
func (HopCount) HasPathLane() bool { return false }

// vmax is the largest packed value that denotes a valid route: the
// limit, or ∞-1 when the limit is unbounded.
func (h HopCount) vmax() uint64 {
	lim := uint64(h.Limit)
	if lim >= packInf {
		lim = packInf - 1
	}
	return lim
}

// EncodeCol implements core.Columnar. Encoding clamps, so the packed
// form is canonical: HopCount.Equal (which clamps both sides) coincides
// with packed word equality.
func (h HopCount) EncodeCol(src []NatInf, dst core.Col) {
	m := dst.M[:len(src)]
	for x, a := range src {
		m[x] = uint64(h.clamp(a))
	}
}

// DecodeCol implements core.Columnar.
func (HopCount) DecodeCol(src core.Col, dst []NatInf) {
	m := src.M[:len(dst)]
	for x := range dst {
		dst[x] = NatInf(m[x])
	}
}

// PackMetric implements core.MetricPacker.
func (h HopCount) PackMetric(a NatInf) uint64 { return uint64(h.clamp(a)) }

// UnpackMetric implements core.MetricPacker.
func (HopCount) UnpackMetric(m uint64) NatInf { return NatInf(m) }

// CompileMetricEdge implements core.MetricPacker.
func (h HopCount) CompileMetricEdge(e core.Edge[NatInf]) core.MetricFn {
	vmax := h.vmax()
	switch ed := e.(type) {
	case hopAddEdge:
		if ed.w.IsInf() || ed.w > h.Limit {
			return func(uint64) uint64 { return packInf }
		}
		w := uint64(ed.w)
		return func(m uint64) uint64 {
			if m > vmax {
				return packInf
			}
			if nm := m + w; nm <= vmax {
				return nm
			}
			return packInf
		}
	case hopCondEdge:
		if ed.w.IsInf() || ed.w > h.Limit {
			return func(uint64) uint64 { return packInf }
		}
		w, test := uint64(ed.w), ed.p.Test
		return func(m uint64) uint64 {
			if m > vmax || !test(NatInf(m)) {
				return packInf
			}
			if nm := m + w; nm <= vmax {
				return nm
			}
			return packInf
		}
	}
	return nil
}

// CompileEdge implements core.Columnar: the batched kernel folds
// dst[j] = min(dst[j], clamp(src[j] + w)) over the selected columns with
// no interface calls, re-slicing dst to src so the dense loop runs
// without bounds checks. Folding ∞ is a no-op under min, so out-of-range
// results are simply skipped.
func (h HopCount) CompileEdge(e core.Edge[NatInf]) core.ColKernel {
	vmax := h.vmax()
	switch ed := e.(type) {
	case hopAddEdge:
		if ed.w.IsInf() || ed.w > h.Limit {
			return noopKernel
		}
		w := uint64(ed.w)
		return func(dst, src core.Col, sel []int32, _ *core.ColScratch, _ *core.ColMemo) {
			dm, sm := dst.M, src.M
			if sel == nil {
				dm2 := dm[:len(sm)]
				for x, m := range sm {
					if m <= vmax {
						if nm := m + w; nm <= vmax && nm < dm2[x] {
							dm2[x] = nm
						}
					}
				}
				return
			}
			for _, j := range sel {
				if m := sm[j]; m <= vmax {
					if nm := m + w; nm <= vmax && nm < dm[j] {
						dm[j] = nm
					}
				}
			}
		}
	case hopCondEdge:
		if ed.w.IsInf() || ed.w > h.Limit {
			return noopKernel
		}
		w, test := uint64(ed.w), ed.p.Test
		return func(dst, src core.Col, sel []int32, _ *core.ColScratch, _ *core.ColMemo) {
			dm, sm := dst.M, src.M
			if sel == nil {
				dm2 := dm[:len(sm)]
				for x, m := range sm {
					if m <= vmax && test(NatInf(m)) {
						if nm := m + w; nm <= vmax && nm < dm2[x] {
							dm2[x] = nm
						}
					}
				}
				return
			}
			for _, j := range sel {
				if m := sm[j]; m <= vmax && test(NatInf(m)) {
					if nm := m + w; nm <= vmax && nm < dm[j] {
						dm[j] = nm
					}
				}
			}
		}
	}
	return nil
}

// --- ShortestPaths ----------------------------------------------------

// ColumnarOK implements core.Columnar.
func (ShortestPaths) ColumnarOK() bool { return true }

// MetricWords implements core.Columnar.
func (ShortestPaths) MetricWords() int { return 1 }

// HasPathLane implements core.Columnar.
func (ShortestPaths) HasPathLane() bool { return false }

// EncodeCol implements core.Columnar: ShortestPaths.Equal is plain ==,
// so the numeric value is already canonical.
func (ShortestPaths) EncodeCol(src []NatInf, dst core.Col) {
	m := dst.M[:len(src)]
	for x, a := range src {
		m[x] = uint64(a)
	}
}

// DecodeCol implements core.Columnar.
func (ShortestPaths) DecodeCol(src core.Col, dst []NatInf) {
	m := src.M[:len(dst)]
	for x := range dst {
		dst[x] = NatInf(m[x])
	}
}

// PackMetric implements core.MetricPacker.
func (ShortestPaths) PackMetric(a NatInf) uint64 { return uint64(a) }

// UnpackMetric implements core.MetricPacker.
func (ShortestPaths) UnpackMetric(m uint64) NatInf { return NatInf(m) }

// CompileMetricEdge implements core.MetricPacker: f_w saturates at ∞,
// matching NatInf.Add (valid metrics stay below 2⁶³, so the unsigned sum
// never wraps and ≥ packInf detects exactly the saturating cases).
func (ShortestPaths) CompileMetricEdge(e core.Edge[NatInf]) core.MetricFn {
	ed, ok := e.(spAddEdge)
	if !ok {
		return nil
	}
	if ed.w.IsInf() {
		return func(uint64) uint64 { return packInf }
	}
	w := uint64(ed.w)
	return func(m uint64) uint64 {
		if m >= packInf {
			return packInf
		}
		if nm := m + w; nm < packInf {
			return nm
		}
		return packInf
	}
}

// CompileEdge implements core.Columnar.
func (ShortestPaths) CompileEdge(e core.Edge[NatInf]) core.ColKernel {
	ed, ok := e.(spAddEdge)
	if !ok {
		return nil
	}
	if ed.w.IsInf() {
		return noopKernel
	}
	w := ed.w
	return func(dst, src core.Col, sel []int32, _ *core.ColScratch, _ *core.ColMemo) {
		dm, sm := dst.M, src.M
		if sel == nil {
			dm2 := dm[:len(sm)]
			for x, m := range sm {
				if m < packInf {
					if nm := m + uint64(w); nm < packInf && nm < dm2[x] {
						dm2[x] = nm
					}
				}
			}
			return
		}
		for _, j := range sel {
			if m := sm[j]; m < packInf {
				if nm := m + uint64(w); nm < packInf && nm < dm[j] {
					dm[j] = nm
				}
			}
		}
	}
}

// noopKernel is the compiled form of an edge that maps every route to ∞:
// folding ∞ under a min-oriented ⊕ changes nothing.
func noopKernel(core.Col, core.Col, []int32, *core.ColScratch, *core.ColMemo) {}
