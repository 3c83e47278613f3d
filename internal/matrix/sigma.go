package matrix

import "repro/internal/core"

// SigmaRowInto computes node i's σ-row per Equation 5,
//
//	σ(X)_ij = 0                      if i = j
//	        = ⨁_k A_ik(X_kj)         otherwise
//
// (node i's new route to j is the best extension of the routes its
// neighbours currently hold) from the neighbour tables in tabs, and
// writes it into dst (allocated when nil), returning dst. tabs[k] is
// the table node i currently sees from node k; entries for k = i or for k
// without an (i, k) edge are never read and may be nil. This is the
// per-node update kernel shared by σ, the event simulator, and the live
// goroutine engine — they differ only in where tabs comes from (the
// current state or a receive cache); the δ evaluator in internal/engine
// runs its change-tracking twin, SigmaRowChanged.
//
// The loops run k-outer so the edge lookup happens once per neighbour
// rather than once per cell. Each cell still folds ⊕ over neighbours in
// ascending-k order, so the result is bit-identical to the j-outer form.
func SigmaRowInto[R any](alg core.Algebra[R], a *Adjacency[R], i int, tabs [][]R, dst []R) []R {
	if dst == nil {
		dst = make([]R, a.N)
	}
	dst = dst[:a.N]
	inv := alg.Invalid()
	for j := range dst {
		dst[j] = inv
	}
	for k := 0; k < a.N; k++ {
		e, ok := a.Edge(i, k)
		if !ok || k == i {
			continue
		}
		tk := tabs[k]
		for j := range dst {
			if j != i {
				dst[j] = alg.Choice(dst[j], e.Apply(tk[j]))
			}
		}
	}
	dst[i] = alg.Trivial()
	return dst
}

// SigmaRowChanged is the change-tracking variant of SigmaRowInto that
// powers the engine's change-driven evaluation. It computes node i's
// σ-row over the in-neighbour list nbr (exactly the k ≠ i with an (i, k)
// edge, ascending; non-nil, since a nil nbr is not a full scan here)
// under the same contract, with three differences:
//
//   - only the k in nbr are folded, in slice order — O(deg) edge lookups
//     a row — and tabs is indexed by neighbour position, not by node:
//     tabs[x] is the table node i sees from nbr[x], so the caller's table
//     scratch is as long as the row's in-degree, not n.
//   - sel, when non-nil, holds the ascending indices of the destination
//     columns to recompute; every other column is copied from prev (the
//     row's previous value), so work is proportional to the columns whose
//     inputs actually changed. A nil sel recomputes the whole row (the
//     dense form), and an empty one copies prev and records nothing.
//   - every recomputed column is compared against prev as it is written,
//     and columns whose value differs (per alg.Equal) are recorded in
//     changed — the per-node dirty set downstream activations consume.
//
// The fold order per cell is identical to SigmaRowInto (ascending k), so
// recomputed cells are bit-identical to the full kernel's. It returns the
// number of columns recomputed — len(sel), or the row width when dense.
//
// Correctness of the copy-for-unchanged contract requires alg.Equal to
// coincide with structural equality on values the kernel itself produces
// (kernel outputs are canonical: Choice and the edge functions normalise
// as they go), which holds for every algebra in this repository.
func SigmaRowChanged[R any](
	alg core.Algebra[R], a *Adjacency[R], i int, nbr []int32, tabs [][]R,
	prev, dst []R, sel []int32, changed *Bitset,
) int {
	inv := alg.Invalid()
	if sel == nil {
		dst = dst[:a.N]
		for j := range dst {
			dst[j] = inv
		}
		for x, k := range nbr {
			e, ok := a.Edge(i, int(k))
			if !ok {
				continue
			}
			tk := tabs[x]
			for j := range dst {
				if j != i {
					dst[j] = alg.Choice(dst[j], e.Apply(tk[j]))
				}
			}
		}
		dst[i] = alg.Trivial()
		recordChanged(alg, prev, dst, nil, changed)
		return a.N
	}
	copy(dst, prev)
	for _, j := range sel {
		dst[j] = inv
	}
	for x, k := range nbr {
		e, ok := a.Edge(i, int(k))
		if !ok {
			continue
		}
		tk := tabs[x]
		for _, j := range sel {
			if int(j) != i {
				dst[j] = alg.Choice(dst[j], e.Apply(tk[j]))
			}
		}
	}
	if selHas(sel, int32(i)) {
		dst[i] = alg.Trivial()
	}
	recordChanged(alg, prev, dst, sel, changed)
	return len(sel)
}

// recordChanged flushes the columns of sel (every column when sel is
// nil) where prev and dst differ into changed. Algebras with interned
// routes answer Equal with an O(1) id compare, so change tracking stays
// O(1) per cell regardless of path length.
func recordChanged[R any](alg core.Algebra[R], prev, dst []R, sel []int32, changed *Bitset) {
	var m changeMask
	if sel == nil {
		for j := range dst {
			if !alg.Equal(prev[j], dst[j]) {
				m.note(j, changed)
			}
		}
	} else {
		for _, j := range sel {
			if !alg.Equal(prev[j], dst[j]) {
				m.note(int(j), changed)
			}
		}
	}
	m.flush(changed)
}

// changeMask gathers changed columns, noted in ascending order, into one
// word OR per 64 columns of a row's change set.
type changeMask struct {
	word int
	mask uint64
}

func (c *changeMask) note(j int, out *Bitset) {
	if w := j >> 6; w != c.word {
		c.flush(out)
		c.word, c.mask = w, 0
	}
	c.mask |= 1 << (j & 63)
}

func (c *changeMask) flush(out *Bitset) {
	if c.mask != 0 {
		out.OrWord(c.word, c.mask)
	}
}

// Sigma applies one synchronous Bellman-Ford round: σ(X) = A(X) ⊕ I.
func Sigma[R any](alg core.Algebra[R], a *Adjacency[R], x *State[R]) *State[R] {
	out := newStateUninit[R](x.N)
	SigmaInto(alg, a, x, out)
	return out
}

// SigmaInto computes σ(x) into out, which must be a distinct state of the
// same dimension. Every cell of out is overwritten, so out may hold stale
// data — the double-buffer form FixedPoint and Orbit iterate with.
func SigmaInto[R any](alg core.Algebra[R], a *Adjacency[R], x, out *State[R]) {
	tabs := x.RowViews()
	for i := 0; i < x.N; i++ {
		SigmaRowInto(alg, a, i, tabs, out.RowView(i))
	}
}

// newStateUninit allocates a state without the fill pass of NewState, for
// callers that overwrite every cell immediately.
func newStateUninit[R any](n int) *State[R] {
	return &State[R]{N: n, cells: make([]R, n*n)}
}

// IsStable reports whether x is a fixed point of σ (Definition 4).
func IsStable[R any](alg core.Algebra[R], a *Adjacency[R], x *State[R]) bool {
	return Sigma(alg, a, x).Equal(alg, x)
}

// FixedPoint iterates σ from start until it reaches a fixed point or
// performs maxRounds rounds. It returns the final state, the number of
// rounds applied, and whether a fixed point was reached (i.e. whether σ
// converged synchronously in the sense of Section 2.3).
func FixedPoint[R any](alg core.Algebra[R], a *Adjacency[R], start *State[R], maxRounds int) (*State[R], int, bool) {
	// Two buffers swapped each round — the loop allocates nothing, where
	// it previously built a fresh O(n²) state per round.
	x := start.Clone()
	next := newStateUninit[R](x.N)
	for round := 0; round < maxRounds; round++ {
		SigmaInto(alg, a, x, next)
		if next.Equal(alg, x) {
			return x, round, true
		}
		x, next = next, x
	}
	return x, maxRounds, false
}

// Orbit returns the σ-orbit X, σ(X), σ²(X), ... up to and including the
// first repeated (fixed-point) state, or maxLen states if no fixed point is
// reached. The ultrametric experiments walk orbits to exhibit the strictly
// decreasing distance chains of Lemma 2.
func Orbit[R any](alg core.Algebra[R], a *Adjacency[R], start *State[R], maxLen int) []*State[R] {
	// Every orbit element is returned, so each needs its own storage; the
	// avoidable churn is Sigma's fill-then-overwrite pass, skipped here by
	// computing straight into uninitialised states.
	orbit := []*State[R]{start.Clone()}
	for len(orbit) < maxLen {
		prev := orbit[len(orbit)-1]
		next := newStateUninit[R](prev.N)
		SigmaInto(alg, a, prev, next)
		orbit = append(orbit, next)
		if next.Equal(alg, prev) {
			break
		}
	}
	return orbit
}
