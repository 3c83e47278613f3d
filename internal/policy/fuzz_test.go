package policy

import (
	"math/rand"
	"slices"
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
// including tie-breaks, invalid sources and looping extensions. The
// kernel runs two or three times over one carried edge-output memo;
// between calls the fuzzer's mut word picks the cells that change — some
// to a fresh route, some re-encoded to an equal one, which must fold from
// the memo — the selection (dense or a subset) and fresh incumbents, so a
// stale memo entry shows as a divergence in a later call. For one seed
// in three the first call runs without a memo.
func FuzzColumnarPolicy(f *testing.F) {
	f.Add("lp+=1", int64(1), uint64(0))
	f.Add("addc(3); if (comm(3) & !path(2)) { lp+=10 } else { reject }", int64(2), uint64(0x5a5a_0f0f_3c3c_9696))
	f.Add("prepend(2); delc(1)", int64(3), ^uint64(0))
	f.Add("if (lp==0) { reject }", int64(4), uint64(0x0123_4567_89ab_cdef))
	f.Fuzz(func(t *testing.T, src string, seed int64, mut uint64) {
		pol, err := ParsePolicy(src)
		if err != nil {
			return
		}
		alg := NewInterned(nil)
		const n = 8
		rng := rand.New(rand.NewSource(seed))
		col := make([]IRoute, n)
		for x := range col {
			col[x] = alg.FromRoute(RandomRoute(rng, n))
		}

		// (a) Round trip through the packed lanes.
		enc := newPolicyCol(n)
		alg.EncodeCol(col, enc)
		dec := make([]IRoute, n)
		alg.DecodeCol(enc, dec)
		for x := range col {
			if !alg.Equal(col[x], dec[x]) {
				t.Fatalf("policy %q: cell %d does not round-trip: %s → %s",
					src, x, alg.Format(col[x]), alg.Format(dec[x]))
			}
		}

		// (b) Kernel vs interface fold for the edge (1, 2), over one memo.
		e := alg.Edge(1, 2, pol)
		kn := alg.CompileEdge(e)
		if kn == nil {
			t.Fatalf("policy %q did not compile to a columnar kernel", src)
		}
		memo := newPolicyMemo(n)
		var scratch core.ColScratch
		incumbent := make([]IRoute, n)
		dst := newPolicyCol(n)
		got := make([]IRoute, n)
		calls := 2 + int(mut&1)
		for call := 0; call < calls; call++ {
			bits := mut >> (1 + 21*call) // 21 bits a call: 8 change, 8 equal/fresh, 5 selection
			if call > 0 {
				for x := range col {
					switch {
					case bits>>x&1 == 0:
					case bits>>(8+x)&1 == 1:
						col[x] = alg.FromRoute(alg.ToRoute(col[x])) // equal, re-encoded
					default:
						col[x] = alg.FromRoute(RandomRoute(rng, n))
					}
				}
				alg.EncodeCol(col, enc)
			}
			var sel []int32
			if s := bits >> 16 & 31; s != 0 {
				for x := range int32(n) {
					if (uint64(x)*7+s)%5 < 3 {
						sel = append(sel, x)
					}
				}
			}
			for x := range incumbent {
				incumbent[x] = alg.FromRoute(RandomRoute(rng, n))
			}
			alg.EncodeCol(incumbent, dst)
			m := &memo
			if call == 0 && seed%3 == 0 {
				m = nil // no memo: every valid source computed, nothing recorded
			}
			kn(dst, enc, sel, &scratch, m)
			alg.DecodeCol(dst, got)
			for x := range col {
				want := incumbent[x]
				if sel == nil || slices.Contains(sel, int32(x)) {
					want = alg.Choice(incumbent[x], e.Apply(col[x]))
				}
				if !alg.Equal(got[x], want) {
					t.Fatalf("policy %q, call %d: kernel fold diverges at %d: got %s, interface %s (src %s ⊕ incumbent %s)",
						src, call, x, alg.Format(got[x]), alg.Format(want), alg.Format(col[x]), alg.Format(incumbent[x]))
				}
			}
		}
	})
}

func newPolicyCol(n int) core.Col {
	return core.Col{ID: make([]paths.PathID, n), M: make([]uint64, 2*n)}
}

// newPolicyMemo returns one edge's memo lanes with every key empty, as
// the engine hands them to a kernel at the start of a run.
func newPolicyMemo(n int) core.ColMemo {
	m := core.ColMemo{ID: make([]paths.PathID, 2*n), M: make([]uint64, 4*n)}
	for x := range m.ID {
		m.ID[x] = paths.InvalidID
	}
	return m
}
