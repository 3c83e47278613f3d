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
// selection, a selection holding the diagonal, the full selection, and
// column counts that do not fill the last bitset word.

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

// rowOut is what one change-tracking kernel call produced: the row's
// cells (decoded on the packed side), its changed bits and its computed
// count.
type rowOut struct {
	cells []algebras.NatInf
	chg   *Bitset
	comp  int
}

// sentinel is a cell value no kernel produces from the tests' inputs:
// both kernels' destinations start as it, so a cell neither writes
// shows up.
const sentinel = algebras.NatInf(0xdead)

// runBoth runs the generic and the packed kernel on the same inputs and
// selection (nil: the dense form on both sides).
func runBoth(alg algebras.ShortestPaths, adj *Adjacency[algebras.NatInf],
	i int, nbr []int32, x *State[algebras.NatInf], prevRow []algebras.NatInf, sel []int32,
) (gen, col rowOut) {
	n := adj.N
	var c core.Columnar[algebras.NatInf] = alg
	meta := ColMetaOf[algebras.NatInf](alg, c)
	kern := natKernels(alg, adj, i, nbr)

	// Generic side. Every cell must be written: seed them with the
	// sentinel.
	gen = rowOut{cells: make([]algebras.NatInf, n), chg: NewBitset(n)}
	for j := range gen.cells {
		gen.cells[j] = sentinel
	}
	// Both kernels read their tables by neighbour position.
	tabsG := make([][]algebras.NatInf, len(nbr))
	for p, k := range nbr {
		tabsG[p] = x.RowView(int(k))
	}
	gen.comp = SigmaRowChanged[algebras.NatInf](alg, adj, i, nbr, tabsG, prevRow, gen.cells, sel, gen.chg)

	// Columnar side: same tabs and prev, packed; dst starts as the packed
	// sentinel, so a cell left unwritten decodes to it.
	tabs := make([]core.Col, len(nbr))
	for p, k := range nbr {
		tabs[p] = packRow(c, x.RowView(int(k)))
	}
	dstC := core.Col{M: make([]uint64, n)}
	for j := range dstC.M {
		dstC.M[j] = uint64(sentinel)
	}
	col = rowOut{cells: make([]algebras.NatInf, n), chg: NewBitset(n)}
	var scratch core.ColScratch
	col.comp = SigmaColChanged(meta, i, kern, nil, tabs, packRow(c, prevRow), dstC, sel, col.chg, &scratch)
	c.DecodeCol(dstC, col.cells)
	return gen, col
}

// checkColVsGeneric runs both kernels on the same inputs and requires
// identical recomputed cells, identical copied cells, identical dirty
// bits and identical computed counts. sel == nil exercises the dense
// form on both sides.
func checkColVsGeneric(t *testing.T, label string,
	alg algebras.ShortestPaths, adj *Adjacency[algebras.NatInf],
	i int, nbr []int32, x *State[algebras.NatInf], prevRow []algebras.NatInf,
	sel []int32,
) rowOut {
	t.Helper()
	gen, col := runBoth(alg, adj, i, nbr, x, prevRow, sel)
	if gen.comp != col.comp {
		t.Fatalf("%s: computed counts diverge: generic %d, columnar %d", label, gen.comp, col.comp)
	}
	for j := range gen.cells {
		if gen.cells[j] == sentinel {
			t.Fatalf("%s: generic kernel left cell %d unwritten", label, j)
		}
		if gen.cells[j] != col.cells[j] {
			t.Fatalf("%s: cell %d: generic %v, columnar %v", label, j, gen.cells[j], col.cells[j])
		}
		if sel != nil && !selHas(sel, int32(j)) && gen.cells[j] != prevRow[j] {
			t.Fatalf("%s: clean cell %d rewritten: %v != prev %v", label, j, gen.cells[j], prevRow[j])
		}
		if gen.chg.Get(j) != col.chg.Get(j) {
			t.Fatalf("%s: dirty bit %d diverges: generic %v, columnar %v", label, j, gen.chg.Get(j), col.chg.Get(j))
		}
	}
	return gen
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
// is ragged — the high 58 bits of word 1 must never leak into the
// changed bits.
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
		var sel []int32
		for j := 0; j < n; j += 3 {
			sel = append(sel, int32(j))
		}
		prev := randomNatRow(rng, n)
		dst := checkColVsGeneric(t, "empty-nbr", alg, adj, i, []int32{}, x, prev, sel).cells
		for _, j := range sel {
			switch {
			case int(j) == i:
				if dst[j] != 0 {
					t.Fatalf("diagonal not trivial: %v", dst[j])
				}
			case dst[j] != algebras.Inf:
				t.Fatalf("dirty cell %d not ∞ with no neighbours: %v", j, dst[j])
			}
		}
	})

	t.Run("empty-selection", func(t *testing.T) {
		// Nothing dirty in the row (a non-nil empty selection): both
		// kernels must return 0, keep dst == prev and record no changes.
		prev := randomNatRow(rng, n)
		out := checkColVsGeneric(t, "empty-sel", alg, adj, i, nbr, x, prev, []int32{})
		if out.comp != 0 || !out.chg.Empty() {
			t.Fatalf("empty selection computed %d columns and changed %d", out.comp, out.chg.Count())
		}
		for j, v := range out.cells {
			if v != prev[j] {
				t.Fatalf("empty selection rewrote cell %d: %v != prev %v", j, v, prev[j])
			}
		}
	})

	t.Run("diagonal-in-selection", func(t *testing.T) {
		// The diagonal is selected among other columns: it comes out
		// trivial, whatever prev held there, and counts as computed.
		prev := randomNatRow(rng, n)
		prev[i] = algebras.Inf
		sel := []int32{0, int32(i - 1), int32(i), int32(i + 1), 66}
		out := checkColVsGeneric(t, "diagonal", alg, adj, i, nbr, x, prev, sel)
		if out.cells[i] != 0 || !out.chg.Get(i) || out.comp != len(sel) {
			t.Fatalf("diagonal %v, changed %v, computed %d of %d", out.cells[i], out.chg.Get(i), out.comp, len(sel))
		}
	})

	t.Run("full-selection-matches-nil", func(t *testing.T) {
		// Selecting every column is the dense form spelled out: same
		// cells, changed bits and count as nil, on both kernels.
		prev := randomNatRow(rng, n)
		full := make([]int32, n)
		for j := range full {
			full[j] = int32(j)
		}
		sparse := checkColVsGeneric(t, "full", alg, adj, i, nbr, x, prev, full)
		dense := checkColVsGeneric(t, "nil", alg, adj, i, nbr, x, prev, nil)
		if sparse.comp != dense.comp {
			t.Fatalf("full selection computed %d, nil %d", sparse.comp, dense.comp)
		}
		for j := range dense.cells {
			if sparse.cells[j] != dense.cells[j] || sparse.chg.Get(j) != dense.chg.Get(j) {
				t.Fatalf("cell %d: full %v (changed %v), nil %v (changed %v)",
					j, sparse.cells[j], sparse.chg.Get(j), dense.cells[j], dense.chg.Get(j))
			}
		}
	})

	t.Run("ragged-tail", func(t *testing.T) {
		// Dirty columns past bit 63, including the last column of the
		// partial word.
		prev := randomNatRow(rng, n)
		checkColVsGeneric(t, "ragged-tail", alg, adj, i, nbr, x, prev, []int32{1, 63, 64, 65, n - 1})
	})

	t.Run("differential-random", func(t *testing.T) {
		// Random rows, random dirty sets, random prevs: the packed and
		// generic kernels must stay indistinguishable.
		for trial := 0; trial < 50; trial++ {
			var sel []int32
			if rng.Intn(4) != 0 {
				sel = []int32{}
				for j := 0; j < n; j++ {
					if rng.Intn(3) == 0 {
						sel = append(sel, int32(j))
					}
				}
			}
			prev := randomNatRow(rng, n)
			ii := rng.Intn(n)
			checkColVsGeneric(t, fmt.Sprintf("trial-%d", trial), alg, adj, ii, natNbr(adj, ii), x, prev, sel)
		}
	})
}
