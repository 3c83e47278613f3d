package matrix

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/algebras"
	"repro/internal/core"
)

func benchNet(n int) (algebras.ShortestPaths, *Adjacency[algebras.NatInf]) {
	alg := algebras.ShortestPaths{}
	adj := NewAdjacency[algebras.NatInf](n)
	for i := 0; i < n; i++ {
		for d := 1; d <= 3; d++ {
			j := (i + d) % n
			adj.SetEdge(i, j, alg.AddEdge(algebras.NatInf(d)))
			adj.SetEdge(j, i, alg.AddEdge(algebras.NatInf(d)))
		}
	}
	return alg, adj
}

func BenchmarkSigma(b *testing.B) {
	for _, n := range []int{8, 16, 32, 64} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			alg, adj := benchNet(n)
			x := Identity[algebras.NatInf](alg, n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				x = Sigma[algebras.NatInf](alg, adj, x)
			}
		})
	}
}

// BenchmarkFixedPoint measures the double-buffered σ iteration: the loop
// swaps two states instead of allocating a fresh O(n²) state per round
// (allocs/op is flat in the round count; it was ~rounds × 2 before).
func BenchmarkFixedPoint(b *testing.B) {
	for _, n := range []int{8, 16, 32} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			alg, adj := benchNet(n)
			start := Identity[algebras.NatInf](alg, n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, ok := FixedPoint[algebras.NatInf](alg, adj, start, 4*n); !ok {
					b.Fatal("did not converge")
				}
			}
		})
	}
}

// BenchmarkOrbit measures the σ-orbit walk; every returned state needs
// its own storage, but the fill-then-overwrite pass and the per-round
// row-view rebuild of the old Sigma-per-round loop are gone.
func BenchmarkOrbit(b *testing.B) {
	for _, n := range []int{16, 32} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			alg, adj := benchNet(n)
			start := Identity[algebras.NatInf](alg, n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				orbit := Orbit[algebras.NatInf](alg, adj, start, 4*n)
				if len(orbit) < 2 {
					b.Fatal("degenerate orbit")
				}
			}
		})
	}
}

func BenchmarkStateEqual(b *testing.B) {
	alg, _ := benchNet(64)
	x := Identity[algebras.NatInf](alg, 64)
	y := x.Clone()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !x.Equal(alg, y) {
			b.Fatal("unequal")
		}
	}
}

// BenchmarkSigmaColumnBatch measures one row recomputation through the
// generic interface kernel and through the columnar struct-of-arrays
// kernel, dense (every column) and sparse (every 8th column dirty) — the
// microbenchmark behind the engine's columnar dispatch: the packed form
// replaces two interface calls and an Equal per (neighbour, column) with
// straight-line integer loops over contiguous lanes.
func BenchmarkSigmaColumnBatch(b *testing.B) {
	const n = 512
	alg, adj := benchNet(n)
	var c core.Columnar[algebras.NatInf] = alg
	meta := ColMetaOf[algebras.NatInf](alg, c)
	rng := rand.New(rand.NewSource(9))
	x := RandomStateFrom(rng, n, []algebras.NatInf{0, 1, 2, 3, 4, algebras.Inf})
	const i = 7
	nbr := natNbr(adj, i)
	kern := natKernels(alg, adj, i, nbr)
	// The change-tracking kernels read their tables by neighbour position.
	tabsG := make([][]algebras.NatInf, len(nbr))
	tabsC := make([]core.Col, len(nbr))
	slab := NewColSlab(meta.W, meta.HasID)
	for p, k := range nbr {
		tabsG[p] = x.RowView(int(k))
		tabsC[p] = slab.Alloc(n, len(nbr))
		c.EncodeCol(tabsG[p], tabsC[p])
	}
	prev := randomNatRow(rng, n)
	prevC := packRow(c, prev)
	dstG := make([]algebras.NatInf, n)
	dstC := core.Col{M: make([]uint64, n)}
	chg := NewBitset(n)
	var scratch core.ColScratch
	var sel []int32
	for j := 0; j < n; j += 8 {
		sel = append(sel, int32(j))
	}

	b.Run("generic/dense", func(b *testing.B) {
		b.ReportAllocs()
		for it := 0; it < b.N; it++ {
			chg.Clear()
			SigmaRowChanged[algebras.NatInf](alg, adj, i, nbr, tabsG, prev, dstG, nil, chg)
		}
	})
	b.Run("columnar/dense", func(b *testing.B) {
		b.ReportAllocs()
		for it := 0; it < b.N; it++ {
			SigmaColChanged(meta, i, kern, nil, tabsC, core.Col{}, dstC, nil, nil, &scratch)
		}
	})
	b.Run("generic/dirty8", func(b *testing.B) {
		b.ReportAllocs()
		for it := 0; it < b.N; it++ {
			chg.Clear()
			SigmaRowChanged[algebras.NatInf](alg, adj, i, nbr, tabsG, prev, dstG, sel, chg)
		}
	})
	b.Run("columnar/dirty8", func(b *testing.B) {
		b.ReportAllocs()
		for it := 0; it < b.N; it++ {
			chg.Clear()
			SigmaColChanged(meta, i, kern, nil, tabsC, prevC, dstC, sel, chg, &scratch)
		}
	})
}

func BenchmarkStateClone(b *testing.B) {
	alg, _ := benchNet(64)
	x := Identity[algebras.NatInf](alg, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = x.Clone()
	}
}
