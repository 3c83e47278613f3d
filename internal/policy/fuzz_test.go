package policy

import (
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/paths"
)

// FuzzParsePolicy throws arbitrary strings at the parser: it must never
// panic, and whatever parses must be an increasing policy when applied
// through an edge (the language-level safety property).
func FuzzParsePolicy(f *testing.F) {
	f.Add("lp+=1")
	f.Add("addc(3); if (comm(3) & !path(2)) { lp+=10 } else { reject }")
	f.Add("if ((lp==0 | comm(1)) & !(path(3))) { delc(2) }")
	f.Add("reject;;")
	f.Add("if (comm(")
	f.Fuzz(func(t *testing.T, src string) {
		pol, err := ParsePolicy(src)
		if err != nil {
			return
		}
		alg := Algebra{}
		e := alg.Edge(3, 1, pol)
		rng := rand.New(rand.NewSource(int64(len(src))))
		for k := 0; k < 16; k++ {
			r := RandomRoute(rng, 4)
			fr := e.Apply(r)
			if alg.Equal(r, alg.Invalid()) {
				if !alg.Equal(fr, alg.Invalid()) {
					t.Fatalf("parsed policy %q resurrected ∞", src)
				}
				continue
			}
			if !core.Leq[Route](alg, r, fr) {
				t.Fatalf("parsed policy %q is not increasing on %s → %s", src, r, fr)
			}
		}
	})
}

// FuzzColumnarPolicy is the packed-cell differential: for any policy the
// parser accepts, (a) EncodeCol∘DecodeCol must be the identity up to
// Equal on random interned routes, and (b) the compiled columnar kernel
// folded over a random column must produce exactly the cells of the
// interface path — dst[x] = Choice(incumbent[x], edge.Apply(src[x])) —
// including tie-breaks, invalid sources and looping extensions.
func FuzzColumnarPolicy(f *testing.F) {
	f.Add("lp+=1", int64(1))
	f.Add("addc(3); if (comm(3) & !path(2)) { lp+=10 } else { reject }", int64(2))
	f.Add("prepend(2); delc(1)", int64(3))
	f.Add("if (lp==0) { reject }", int64(4))
	f.Fuzz(func(t *testing.T, src string, seed int64) {
		pol, err := ParsePolicy(src)
		if err != nil {
			return
		}
		alg := NewInterned(nil)
		const n = 8
		rng := rand.New(rand.NewSource(seed))
		col := make([]IRoute, n)
		incumbent := make([]IRoute, n)
		for x := range col {
			col[x] = alg.FromRoute(RandomRoute(rng, n))
			incumbent[x] = alg.FromRoute(RandomRoute(rng, n))
		}

		// (a) Round trip through the packed lanes.
		enc := core.Col{ID: make([]paths.PathID, n), M: make([]uint64, 2*n)}
		alg.EncodeCol(col, enc)
		dec := make([]IRoute, n)
		alg.DecodeCol(enc, dec)
		for x := range col {
			if !alg.Equal(col[x], dec[x]) {
				t.Fatalf("policy %q: cell %d does not round-trip: %s → %s",
					src, x, alg.Format(col[x]), alg.Format(dec[x]))
			}
		}

		// (b) Kernel vs interface fold for the edge (1, 2).
		e := alg.Edge(1, 2, pol)
		kn := alg.CompileEdge(e)
		if kn == nil {
			t.Fatalf("policy %q did not compile to a columnar kernel", src)
		}
		dst := core.Col{ID: make([]paths.PathID, n), M: make([]uint64, 2*n)}
		alg.EncodeCol(incumbent, dst)
		var scratch core.ColScratch
		kn(dst, enc, nil, &scratch)
		got := make([]IRoute, n)
		alg.DecodeCol(dst, got)
		for x := range col {
			want := alg.Choice(incumbent[x], e.Apply(col[x]))
			if !alg.Equal(got[x], want) {
				t.Fatalf("policy %q: kernel fold diverges at %d: got %s, interface %s (src %s ⊕ incumbent %s)",
					src, x, alg.Format(got[x]), alg.Format(want), alg.Format(col[x]), alg.Format(incumbent[x]))
			}
		}
	})
}
