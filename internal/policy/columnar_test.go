package policy

import (
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/paths"
)

// kernelColumns is one edge's kernel, j = 2 → i = 1, on a column of n
// destinations, with two source columns in the mix of the policy
// workload's kernel calls: about 43 % invalid sources, and of the valid
// ones about 64 % equal in both columns. A kernel called on a and b in
// turn over one memo therefore finds about 64 % of its valid sources
// equal to the memo's key. Valid sources are paths from node 2, some
// through node 1, whose extension loops.
func kernelColumns(n int, seed int64) (alg *Interned, kn core.ColKernel, a, b core.Col) {
	pol, err := ParsePolicy("addc(3); if (comm(3) & !path(5)) { lp+=10 } else { prepend(1) }")
	if err != nil {
		panic(err)
	}
	alg = NewInterned(nil)
	kn = alg.CompileEdge(alg.Edge(1, 2, pol))
	rng := rand.New(rand.NewSource(seed))
	route := func(x int) IRoute {
		if x == 2 || rng.Intn(100) < 43 {
			return InvalidIRoute
		}
		nodes := []int{2}
		for hop := rng.Intn(4); hop > 0; hop-- {
			if v := rng.Intn(n); v != 2 && v != x {
				nodes = append(nodes, v)
			}
		}
		p := paths.FromNodes(append(nodes, x)...)
		if p.IsInvalid() {
			return InvalidIRoute // the random hops repeated a node
		}
		return alg.FromRoute(Valid(uint32(rng.Intn(3)), NewCommunitySet(Community(rng.Intn(6))), p))
	}
	ra, rb := make([]IRoute, n), make([]IRoute, n)
	for x := range ra {
		ra[x] = route(x)
		rb[x] = ra[x]
		if !ra[x].invalid && rng.Intn(100) >= 64 {
			for rb[x] = route(x); rb[x].invalid; rb[x] = route(x) {
			}
		}
	}
	a, b = newPolicyCol(n), newPolicyCol(n)
	alg.EncodeCol(ra, a)
	alg.EncodeCol(rb, b)
	return alg, kn, a, b
}

// resetCol sets every cell of a policy column to ∞, as σ does to a dirty
// column before the fold.
func resetCol(c core.Col) {
	for x := range c.ID {
		c.ID[x] = paths.InvalidID
	}
	for x := range c.M {
		c.M[x] = polInvW
	}
}

// TestKernelWarmMemoDoesNotAllocate: once its extensions are interned
// and its scratch grown, the kernel allocates nothing, whether the memo
// answers a cell or the cell goes through ExtendSel and apply, dense or
// on a selection.
func TestKernelWarmMemoDoesNotAllocate(t *testing.T) {
	const n = 128
	_, kn, a, b := kernelColumns(n, 1)
	memo, dst := newPolicyMemo(n), newPolicyCol(n)
	var scratch core.ColScratch
	sel := []int32{0, 3, 4, 17, 64, 100, 127}
	kn(dst, a, nil, &scratch, &memo)
	kn(dst, b, nil, &scratch, &memo)
	allocs := testing.AllocsPerRun(100, func() {
		resetCol(dst)
		kn(dst, a, nil, &scratch, &memo)
		kn(dst, b, nil, &scratch, &memo)
		kn(dst, a, sel, &scratch, &memo)
	})
	if allocs != 0 {
		t.Fatalf("warm kernel allocated %.1f times per run", allocs)
	}
}
