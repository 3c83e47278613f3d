package matrix

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/algebras"
	"repro/internal/core"
)

// Boundary and differential tests for the two change-tracking row
// kernels: the generic SigmaRowChanged and its packed twin
// SigmaColChanged. The two must agree cell for cell and dirty-bit for
// dirty-bit on every dirty set the engine can produce — including the
// degenerate ones: a node with no in-neighbours, an empty dirty
// selection, and column counts that do not fill the last bitset word.

// natNbr returns the ascending in-neighbour list of node i.
func natNbr(a *Adjacency[algebras.NatInf], i int) []int32 {
	var nbr []int32
	for k := 0; k < a.N; k++ {
		if k == i {
			continue
		}
		if _, ok := a.Edge(i, k); ok {
			nbr = append(nbr, int32(k))
		}
	}
	return nbr
}

// natKernels compiles the columnar kernels of node i's in-edges, aligned
// index for index with nbr.
func natKernels(alg algebras.ShortestPaths, a *Adjacency[algebras.NatInf], i int, nbr []int32) []core.ColKernel {
	var c core.Columnar[algebras.NatInf] = alg
	kern := make([]core.ColKernel, len(nbr))
	for x, k := range nbr {
		e, ok := a.Edge(i, int(k))
		if !ok {
			panic("nbr entry without an edge")
		}
		if kern[x] = c.CompileEdge(e); kern[x] == nil {
			panic("ShortestPaths edge failed to compile")
		}
	}
	return kern
}

// packRow encodes one reference row into a fresh packed lane.
func packRow(c core.Columnar[algebras.NatInf], row []algebras.NatInf) core.Col {
	dst := core.Col{M: make([]uint64, len(row))}
	c.EncodeCol(row, dst)
	return dst
}

// checkColVsGeneric runs both kernels on the same inputs and requires
// identical recomputed cells, identical copied cells, identical dirty
// bits and identical computed counts. cols == nil exercises the dense
// form on both sides.
func checkColVsGeneric(t *testing.T, label string,
	alg algebras.ShortestPaths, adj *Adjacency[algebras.NatInf],
	i int, nbr []int32, x *State[algebras.NatInf], prevRow []algebras.NatInf,
	cols *Bitset,
) {
	t.Helper()
	n := adj.N
	var c core.Columnar[algebras.NatInf] = alg
	meta := ColMetaOf[algebras.NatInf](alg, c)
	kern := natKernels(alg, adj, i, nbr)

	// Generic side. Every cell must be written: seed them with a sentinel
	// no kernel produces.
	const sentinel = algebras.NatInf(0xdead)
	dstG := make([]algebras.NatInf, n)
	for j := range dstG {
		dstG[j] = sentinel
	}
	chgG := NewBitset(n)
	compG := SigmaRowChanged[algebras.NatInf](alg, adj, i, nbr, x.RowViews(), prevRow, dstG, cols, chgG)

	// Columnar side: same tabs and prev, packed.
	cs := EncodeColumnar(c, x)
	prevC := packRow(c, prevRow)
	dstC := core.Col{M: make([]uint64, n)}
	if cols != nil {
		copy(dstC.M, prevC.M) // the driver copy-fills before a sparse call
	}
	var sel []int32
	if cols != nil {
		sel = []int32{} // non-nil even when empty: the sparse form with nothing dirty
		cols.ForEach(func(j int) { sel = append(sel, int32(j)) })
	}
	chgC := NewBitset(n)
	var scratch core.ColScratch
	compC := SigmaColChanged(meta, i, nbr, kern, nil, cs.Rows, prevC, dstC, sel, chgC, &scratch)

	if compG != compC {
		t.Fatalf("%s: computed counts diverge: generic %d, columnar %d", label, compG, compC)
	}
	dec := make([]algebras.NatInf, n)
	c.DecodeCol(dstC, dec)
	for j := 0; j < n; j++ {
		if dstG[j] == sentinel {
			t.Fatalf("%s: generic kernel left cell %d unwritten", label, j)
		}
		if dstG[j] != dec[j] {
			t.Fatalf("%s: cell %d: generic %v, columnar %v", label, j, dstG[j], dec[j])
		}
		if cols != nil && !cols.Get(j) && dstG[j] != prevRow[j] {
			t.Fatalf("%s: clean cell %d rewritten: %v != prev %v", label, j, dstG[j], prevRow[j])
		}
		if chgG.Get(j) != chgC.Get(j) {
			t.Fatalf("%s: dirty bit %d diverges: generic %v, columnar %v", label, j, chgG.Get(j), chgC.Get(j))
		}
	}
}

// randomNatRow draws a canonical prev row (values an earlier kernel pass
// could have produced: finite metrics or ∞).
func randomNatRow(rng *rand.Rand, n int) []algebras.NatInf {
	row := make([]algebras.NatInf, n)
	for j := range row {
		if rng.Intn(4) == 0 {
			row[j] = algebras.Inf
		} else {
			row[j] = algebras.NatInf(rng.Intn(12))
		}
	}
	return row
}

// TestSigmaSpanChangedBoundaries pins the degenerate row shapes of both
// change-tracking kernels. n = 70 throughout, so the second bitset word
// is ragged — the high 58 bits of word 1 must never leak into dirty sets
// or selections.
func TestSigmaSpanChangedBoundaries(t *testing.T) {
	const n = 70 // deliberately not a multiple of 64
	alg, adj := benchNet(n)
	rng := rand.New(rand.NewSource(6))
	x := RandomStateFrom(rng, n, []algebras.NatInf{0, 1, 2, 3, algebras.Inf})
	i := 5
	nbr := natNbr(adj, i)

	t.Run("empty-neighbour-list", func(t *testing.T) {
		// A node with no in-neighbours folds nothing: every dirty column
		// becomes ∞ and the diagonal stays trivial.
		cols := NewBitset(n)
		for j := 0; j < n; j += 3 {
			cols.Set(j)
		}
		prev := randomNatRow(rng, n)
		checkColVsGeneric(t, "empty-nbr", alg, adj, i, []int32{}, x, prev, cols)

		dst := make([]algebras.NatInf, n)
		chg := NewBitset(n)
		SigmaRowChanged[algebras.NatInf](alg, adj, i, []int32{}, x.RowViews(), prev, dst, cols, chg)
		cols.ForEach(func(j int) {
			switch {
			case j == i:
				if dst[j] != 0 {
					t.Fatalf("diagonal not trivial: %v", dst[j])
				}
			case dst[j] != algebras.Inf:
				t.Fatalf("dirty cell %d not ∞ with no neighbours: %v", j, dst[j])
			}
		})
	})

	t.Run("empty-selection", func(t *testing.T) {
		// Nothing dirty in the row: both kernels must return 0, keep
		// dst == prev and record no changes.
		prev := randomNatRow(rng, n)
		checkColVsGeneric(t, "empty-sel", alg, adj, i, nbr, x, prev, NewBitset(n))
	})

	t.Run("ragged-tail", func(t *testing.T) {
		// Dirty columns past bit 63, including the last column of the
		// partial word.
		cols := NewBitset(n)
		for _, j := range []int{1, 63, 64, 65, n - 1} {
			cols.Set(j)
		}
		prev := randomNatRow(rng, n)
		checkColVsGeneric(t, "ragged-tail", alg, adj, i, nbr, x, prev, cols)
	})

	t.Run("differential-random", func(t *testing.T) {
		// Random rows, random dirty sets, random prevs: the packed and
		// generic kernels must stay indistinguishable.
		for trial := 0; trial < 50; trial++ {
			var cols *Bitset
			if rng.Intn(4) != 0 {
				cols = NewBitset(n)
				for j := 0; j < n; j++ {
					if rng.Intn(3) == 0 {
						cols.Set(j)
					}
				}
			}
			prev := randomNatRow(rng, n)
			ii := rng.Intn(n)
			checkColVsGeneric(t, fmt.Sprintf("trial-%d", trial), alg, adj, ii, natNbr(adj, ii), x, prev, cols)
		}
	})
}
