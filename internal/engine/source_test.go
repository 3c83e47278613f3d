package engine_test

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/algebras"
	"repro/internal/engine"
	"repro/internal/matrix"
	"repro/internal/schedule"
)

// The schedule-source laws: lazy sources must be pure functions of their
// parameters, and Fair sources must honour the contract their FairPeriod
// advertises.

// march hides src's Fair promise and keeps everything else, Batched
// included when src has it: a run over it never certifies, so it never
// stops early and never jumps an interlude. It is the marching oracle
// early exits and interlude jumps are checked against.
func march(src engine.Source) engine.Source {
	if b, ok := src.(engine.Batched); ok {
		return marchBatched{src, b}
	}
	return marching{src}
}

// marching and marchBatched promote only their embedded interfaces'
// methods, so FairPeriod is not among them.
type marching struct{ engine.Source }

type marchBatched struct {
	engine.Source
	engine.Batched
}

// lookback is src stating a MaxLookback of its own, true or not.
type lookback struct {
	engine.Source
	reach int
}

func (l lookback) MaxLookback() int { return l.reach }

// TestHashedDeterministic: Hashed is a pure function of (Seed, t, i, k) —
// two values with equal parameters must agree on every activation and β,
// and drive the engine to bit-identical results.
func TestHashedDeterministic(t *testing.T) {
	a := engine.Hashed{N: 16, T: 200, Seed: 99, MaxGap: 12, MaxStaleness: 6}
	b := engine.Hashed{N: 16, T: 200, Seed: 99, MaxGap: 12, MaxStaleness: 6}
	for tt := 1; tt <= a.T; tt++ {
		for i := 0; i < a.N; i++ {
			if a.Active(tt, i) != b.Active(tt, i) {
				t.Fatalf("Active(%d, %d) differs between identical sources", tt, i)
			}
			for k := 0; k < a.N; k++ {
				if a.Beta(tt, i, k) != b.Beta(tt, i, k) {
					t.Fatalf("Beta(%d, %d, %d) differs between identical sources", tt, i, k)
				}
			}
		}
	}
	alg, adj, _ := hopNet()
	src := engine.Hashed{N: adj.N, T: 300, Seed: 5, MaxGap: 8, MaxStaleness: 4}
	r1 := engine.Run[algebras.NatInf](alg, adj, matrix.Identity[algebras.NatInf](alg, adj.N), src)
	r2 := engine.Run[algebras.NatInf](alg, adj, matrix.Identity[algebras.NatInf](alg, adj.N), src)
	identicalStates(t, "hashed re-run", r1.Final(), r2.Final())
	if s1, s2 := r1.Stats(), r2.Stats(); s1 != s2 {
		t.Fatalf("hashed re-run stats differ: %+v vs %+v", s1, s2)
	}
}

// checkFairContract verifies a Fair source empirically over its horizon:
// every node activates in every window of P steps, and no activation
// reads data older than P steps.
func checkFairContract(t *testing.T, name string, src engine.Source) {
	t.Helper()
	f, ok := src.(engine.Fair)
	if !ok {
		t.Fatalf("%s: expected a Fair source", name)
	}
	p := f.FairPeriod()
	if p < 1 {
		t.Fatalf("%s: FairPeriod() = %d, want ≥ 1", name, p)
	}
	n, T := src.Nodes(), src.Horizon()
	last := make([]int, n) // last activation, 0 = the initial state
	for tt := 1; tt <= T; tt++ {
		for i := 0; i < n; i++ {
			if !src.Active(tt, i) {
				if tt-last[i] > p {
					t.Fatalf("%s: node %d silent for %d > P=%d steps at t=%d", name, i, tt-last[i], p, tt)
				}
				continue
			}
			last[i] = tt
			for k := 0; k < n; k++ {
				b := src.Beta(tt, i, k)
				if b < 0 || b >= tt {
					t.Fatalf("%s: β(%d,%d,%d)=%d violates S2", name, tt, i, k, b)
				}
				if tt-b > p {
					t.Fatalf("%s: β(%d,%d,%d)=%d is %d > P=%d steps stale", name, tt, i, k, b, tt-b, p)
				}
			}
		}
	}
}

// TestFairContracts: every lazy source claiming Fair must satisfy the
// contract on sampled horizons, including RoundRobin's exact period N.
func TestFairContracts(t *testing.T) {
	checkFairContract(t, "synchronous", engine.Synchronous{N: 7, T: 60})
	checkFairContract(t, "round-robin", engine.RoundRobin{N: 7, T: 120})
	if p := (engine.RoundRobin{N: 7, T: 120}).FairPeriod(); p != 7 {
		t.Fatalf("RoundRobin{N: 7}.FairPeriod() = %d, want 7", p)
	}
	for seed := uint64(0); seed < 4; seed++ {
		checkFairContract(t, "hashed", engine.Hashed{N: 9, T: 400, Seed: seed, MaxGap: 11, MaxStaleness: 5})
	}
	// The materialised round-robin schedule records the same fairness its
	// lazy counterpart promises.
	if p := schedule.RoundRobin(7, 120).Fairness(); p != 7 {
		t.Fatalf("schedule.RoundRobin(7).Fairness() = %d, want 7", p)
	}
}

// batchedSeeds is the seed corpus of the whole-step laws: source kind
// (0 Synchronous, 1 RoundRobin, 2 Hashed, 3 the pointwise adapter over a
// recorded schedule), its parameters, and the range of steps to check.
var batchedSeeds = []struct {
	kind                           uint8
	n, gap, stale, mille, t0, span int
}{
	{0, 7, 0, 0, 0, 1, 40},     // Synchronous from step 1
	{1, 7, 0, 0, 0, 1, 40},     // RoundRobin from step 1
	{1, 5, 0, 0, 0, 13, 1},     // single step
	{0, 5, 0, 0, 0, 13, 0},     // empty range
	{2, 9, 0, 0, 0, 1, 60},     // Hashed, defaults: staleness 8, t < 8 first
	{2, 9, 11, 4, 0, 57, 90},   // explicit MaxGap ≥ N, the service's staleness
	{2, 16, 3, 3, 0, 1, 50},    // MaxGap < N: ⌈16/3⌉ forced per step
	{2, 16, 5, 5, 1, 998, 70},  // the draw all but off: forced only
	{2, 16, 5, 7, 999, 3, 70},  // the draw all but always on
	{2, 1, 1, 1, 0, 1, 9},      // one node, forced every step, β ≡ t − 1
	{2, 12, 4, 8, 600, 20, 1},  // single step
	{2, 12, 4, 8, 600, 20, 0},  // empty range
	{2, 12, 4, 8, 600, 20, -3}, //
	{3, 9, 6, 5, 600, 1, 40},   // the adapter over a recorded schedule
	{3, 6, 3, 1, 300, 17, 25},  //
}

// checkBatched holds one source to the whole-step laws over t0..t1:
// ActiveSet(t) is the nodes Active admits, in order; Betas(t, i, nbr) is
// Beta per neighbour, with their minimum; CountActive(t0, t1) is Σ Active.
func checkBatched(t *testing.T, kind uint8, n, gap, stale, mille int, seed uint64, t0, span int) {
	if n < 1 || n > 64 || gap < 0 || gap > 300 || stale < 0 || stale > 70 || mille < 0 || mille > 1000 ||
		t0 < 1 || t0 > 1<<40 || span < -4 || span > 400 {
		t.Skip()
	}
	t1 := t0 + span - 1
	var src engine.Source
	switch kind % 4 {
	case 0:
		src = engine.Synchronous{N: n, T: t1}
	case 1:
		src = engine.RoundRobin{N: n, T: t1}
	case 2:
		src = engine.Hashed{N: n, T: t1, Seed: seed, ActivationProbMille: mille, MaxGap: gap, MaxStaleness: stale}
	default:
		if t1 > 500 {
			t.Skip() // a recorded schedule is O(T·n²)
		}
		src = schedule.Random(rand.New(rand.NewSource(int64(seed))), n, max(t1, 1),
			schedule.Options{ActivationProb: float64(mille) / 1000, MaxGap: gap, MaxStaleness: stale})
	}
	b, ok := src.(engine.Batched)
	if ok == (kind%4 == 3) {
		t.Fatalf("%T: Batched = %v", src, ok)
	}
	if !ok {
		b = engine.Pointwise(src)
	}
	// Neighbour lists as the engine builds them: ascending, without i.
	nbr, betas := make([]int32, 0, n), make([]int, n)
	cnt := 0
	for tt := t0; tt <= t1; tt++ {
		var want []int
		for i := 0; i < n; i++ {
			if src.Active(tt, i) {
				want = append(want, i)
			}
		}
		cnt += len(want)
		if got := b.ActiveSet(tt, nil); !slices.Equal(got, want) {
			t.Fatalf("%+v: ActiveSet(%d) = %v, Active admits %v", src, tt, got, want)
		}
		for _, i := range want {
			nbr = nbr[:0]
			for k := int((seed + uint64(i)) % 3); k < n; k += 1 + (i+k)%3 {
				if k != i {
					nbr = append(nbr, int32(k))
				}
			}
			minB := b.Betas(tt, i, nbr, betas)
			wantMin := tt
			for ai, k := range nbr {
				w := src.Beta(tt, i, int(k))
				if betas[ai] != w {
					t.Fatalf("%+v: Betas(%d, %d)[%d] = %d, Beta(·, ·, %d) = %d", src, tt, i, ai, betas[ai], k, w)
				}
				wantMin = min(wantMin, w)
			}
			if minB != wantMin {
				t.Fatalf("%+v: Betas(%d, %d, %v) returned minimum %d, want %d", src, tt, i, nbr, minB, wantMin)
			}
		}
	}
	if got := b.CountActive(t0, t1); got != cnt {
		t.Fatalf("%+v: CountActive(%d, %d) = %d, Σ Active = %d", src, t0, t1, got, cnt)
	}
}

// FuzzBatchedMatchesPointwise: every whole-step answer equals the
// pointwise definition (checkBatched). On the closed forms; on Hashed
// with the forced activations sparse (default MaxGap = 4N), dense (MaxGap
// < N, several nodes forced per step), the draw all but off or all but
// always on, and β reaching a power of two back (the mask) or not (the
// division), including t below the staleness; and on the pointwise
// adapter over a materialised schedule. The seed corpus is the unit
// test; `-fuzz FuzzBatchedMatchesPointwise` explores.
func FuzzBatchedMatchesPointwise(f *testing.F) {
	for _, c := range batchedSeeds {
		f.Add(c.kind, c.n, c.gap, c.stale, c.mille, uint64(c.n*31+c.gap), c.t0, c.span)
	}
	f.Fuzz(checkBatched)
}

// FuzzCountActive is the same laws at the default staleness on the lazy
// sources alone: the entry point PR 14's corpus and seed names belong to.
func FuzzCountActive(f *testing.F) {
	for _, c := range batchedSeeds {
		if c.kind < 3 {
			f.Add(c.kind, c.n, c.gap, c.mille, uint64(c.n*31+c.gap), c.t0, c.span)
		}
	}
	f.Fuzz(func(t *testing.T, kind uint8, n, gap, mille int, seed uint64, t0, span int) {
		checkBatched(t, kind%3, n, gap, 0, mille, seed, t0, span)
	})
}
