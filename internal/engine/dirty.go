package engine

import (
	"math/bits"

	"repro/internal/core"
)

// incShared is the read-only change-tracking state a step's tasks consume:
// the last-changed-time matrix and the per-worker scratch. It is
// written only between steps, by the serial fold.
type incShared struct {
	n int
	// ver[k·n+j] is the time at which node k's route to j last changed
	// (0 = never since the start state). It is the compact union of every
	// published snapshot's changed-destination bitsets: "did k's column j
	// change in (lo, t]?" is exactly ver[k·n+j] > lo.
	ver []int32
	// wordMax[k·wper+wi] is the word-granular summary of ver: the latest
	// time any of node k's columns in word wi (destinations [64wi,
	// 64wi+64)) changed. The dirty resolution consults it first, so 64
	// clean columns cost one compare per neighbour instead of 64.
	wordMax []int32
	wper    int // words per node: ⌈n/64⌉
	// rowMax[k] = max_j ver[k·n+j]: the O(1) whole-row dirty summary,
	// consulted both by the skip pass and by dirty resolution to drop
	// fully-clean neighbours before any per-word work.
	rowMax []int32
	// hist is a ring of per-step change masks, histH slots per node:
	// slot (k, s mod histH) holds node k's changed-destination words of
	// step s, valid iff histStamp[k·histH + s mod histH] == s. For a
	// threshold within the ring's depth the dirty resolution ORs these
	// precomputed words — a handful of loads per neighbour — instead of
	// comparing per-column stamps; ver remains the exact fallback for
	// older thresholds. The ring is the same memory order as ver itself
	// (histH/64 · 2 words per ver's int32 column, per node).
	hist      []uint64 // n · histH · wper
	histStamp []int32  // n · histH
	// top is the latest step whose changes have been folded; the mask
	// union over (lo, top] equals {j : ver[j] > lo} because no column
	// changed after top.
	top int32
	// scratch[w] is worker w's workspace.
	scratch []workerScratch
}

// histH is the change-mask ring depth per node: thresholds reaching at
// most histH steps back resolve dirty columns from precomputed masks.
// Must be a power of two.
const histH = 32

// workerScratch is one worker's private workspace: the β values of the
// activation in hand, the dirty-column masks being assembled, the
// selection they resolve to, the packed kernels' staging lanes (batched
// ExtendSel results land there), and the worker's count of recomputed
// cells, padded off every other worker's cache lines.
type workerScratch struct {
	betas []int
	masks []uint64
	sel   []int32
	col   core.ColScratch
	cells int
	_     [64]byte
}

// foldRowChanges publishes node i's changed-destination scratch bitset
// (r.chg[i]) for step t into the last-changed matrix, the change-mask
// ring, and the word/row dirty summaries, then clears it. It reports
// whether any column actually changed.
func (r *run[R, Row]) foldRowChanges(i, t int) bool {
	chgI := &r.chg[i]
	if chgI.Empty() {
		return false
	}
	base := i * r.inc.n
	wbase := i * r.inc.wper
	slot := i*histH + t&(histH-1)
	hb := r.inc.hist[slot*r.inc.wper : (slot+1)*r.inc.wper]
	clear(hb)
	r.inc.histStamp[slot] = int32(t)
	chgI.ForEachWord(func(wi int, w uint64) {
		hb[wi] = w
		r.inc.wordMax[wbase+wi] = int32(t)
		jb := base + wi<<6
		for w != 0 {
			r.inc.ver[jb+bits.TrailingZeros64(w)] = int32(t)
			w &= w - 1
		}
	})
	r.inc.rowMax[i] = int32(t)
	chgI.Clear()
	return true
}

// resolveDirtySel returns the row's dirty columns — the destinations
// whose β-resolved inputs changed since the row's thresholds — in
// ascending order, in the worker's selection scratch: the selection both
// row kernels iterate, so the interface and columnar paths have
// identical Stats by construction. The set is assembled as one mask word
// per 64 columns, and the scan prunes at three granularities before
// touching a single per-column stamp: a neighbour whose whole row is
// clean since its threshold (rowMax) is dropped up front, a clean
// 64-column word costs one compare (wordMax), and a word already fully
// dirty from an earlier neighbour is skipped — change wavefronts make
// full words common.
func resolveDirtySel(inc *incShared, nbr, lo []int32, ws *workerScratch) []int32 {
	n, wper, top := inc.n, inc.wper, int(inc.top)
	masks := ws.masks
	clear(masks)
	for ai, k32 := range nbr {
		k := int(k32)
		l := int(lo[ai])
		if int(inc.rowMax[k]) <= l {
			continue
		}
		if l >= top-histH {
			// The threshold is within the mask ring: the dirty set is the
			// union of this neighbour's change masks over (l, top] — a
			// stamp check and at most wper ORs per step in the window.
			stampRow := inc.histStamp[k*histH : (k+1)*histH]
			histRow := inc.hist[k*histH*wper : (k+1)*histH*wper]
			for s := l + 1; s <= top; s++ {
				sl := s & (histH - 1)
				if stampRow[sl] != int32(s) {
					continue
				}
				for x, h := range histRow[sl*wper : (sl+1)*wper] {
					masks[x] |= h
				}
			}
			continue
		}
		// Threshold older than the ring: exact per-column scan against
		// ver, one 64-column word at a time, skipping words the summary
		// proves clean and words already fully dirty.
		row := inc.ver[k*n : (k+1)*n]
		wm := inc.wordMax[k*wper : (k+1)*wper]
		l32 := lo[ai]
		for wi, m := range masks {
			if wm[wi] <= l32 {
				continue
			}
			jlo, jhi := wi<<6, min(wi<<6+64, n)
			if m == ^uint64(0)>>(64-(jhi-jlo)) {
				continue
			}
			for x, v := range row[jlo:jhi] {
				if v > l32 {
					m |= 1 << x
				}
			}
			masks[wi] = m
		}
	}
	sel := ws.sel[:0]
	for wi, m := range masks {
		jb := wi << 6
		for m != 0 {
			sel = append(sel, int32(jb+bits.TrailingZeros64(m)))
			m &= m - 1
		}
	}
	return sel
}
