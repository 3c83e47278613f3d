package engine

// Source supplies the (α, β) schedule driving a run: Active is α and Beta
// is β in the Üresin & Dubois model of Section 3.1. *schedule.Schedule
// satisfies Source; the types in this file are lazy sources that need no
// O(T·n²) materialisation, which matters once horizons reach production
// scale. Active and Beta define the schedule; a run reads it a step at a
// time, through Batched. MaxLookback is the bounded staleness the paper's
// Theorem 4 assumes, stated by the source: it sizes the run's history
// ring, and a source that may stop early says so by implementing Fair.
//
// A run that fans a step out draws each activation's β values on the
// pool's workers, so Beta — through the pointwise adapter, for a source
// without Batched — is called concurrently for distinct i within one
// step: a source's answers must be pure, or safe for that.
type Source interface {
	// Nodes returns n, the node count.
	Nodes() int
	// Horizon returns T, the last time step; the engine evaluates
	// t = 1..T.
	Horizon() int
	// Active reports whether node i ∈ α(t).
	Active(t, i int) bool
	// Beta returns β(t, i, k) ∈ [0, t−1]: the time at which the data node
	// i reads from node k at time t was generated.
	Beta(t, i, k int) int
	// MaxLookback returns the maximum t − β(t, i, k) over activations the
	// run performs, at least 1: the run keeps that many past states, and a
	// β reaching further back panics.
	MaxLookback() int
}

// Fair is implemented by sources that promise a fairness period P =
// FairPeriod(): in every window of P consecutive time steps each node
// activates at least once, and β never reads data older than P steps
// (β(t, i, k) ≥ t − P for every activation). These are the effective
// bounded forms of the schedule axioms S1 and S3 over one period.
//
// Fairness is what makes early δ-termination sound: once the dirty
// frontier has been quiet for a period and every node has re-verified its
// row against post-quiescence data, no future activation can read data
// from before the fixed point was reached, so the run can return its
// limit instead of grinding to the horizon. The engine certifies the
// fixed point exactly (per-node, from the actual β values it saw); the
// period only bounds the detection latency and fences off stale rereads.
//
// Materialised *schedule.Schedule values deliberately do not implement
// Fair — a recorded schedule makes no promise about what a longer run
// would have done.
type Fair interface {
	// FairPeriod returns P ≥ 1.
	FairPeriod() int
}

// Batched is implemented by sources that answer for a whole step at a
// time; it is how a run asks every schedule question. A lazy source
// hoists what depends only on t, or on (t, i), out of the per-node and
// per-neighbour work, and counts a range of steps without visiting it;
// each answer must equal the pointwise one (Active, Beta) exactly. A
// source without it is served by the pointwise adapter, so Active and
// Beta stay: they are what the reference evaluator and the adapter read.
//
// ActiveSet is called on the run's goroutine, between fan-outs; Betas
// is called on the pool's workers, concurrently for distinct i within
// one step, whenever the step fans out.
type Batched interface {
	// ActiveSet appends α(t) to dst in ascending node order.
	ActiveSet(t int, dst []int) []int
	// Betas writes β(t, i, k) for each k of nbr into dst[:len(nbr)] and
	// returns their minimum (t when nbr is empty).
	Betas(t, i int, nbr []int32, dst []int) (minB int)
	// CountActive returns |{(t, i) : t0 ≤ t ≤ t1, i ∈ α(t)}|, 0 when
	// t1 < t0: the skipped rows of a jumped quiescent interlude, counted
	// only when the run's Stats are read (interlude.go).
	CountActive(t0, t1 int) int
}

// pointwise serves Batched from a plain Source, one Active or Beta call
// at a time.
type pointwise struct{ Source }

func (p *pointwise) ActiveSet(t int, dst []int) []int {
	for i, n := 0, p.Nodes(); i < n; i++ {
		if p.Active(t, i) {
			dst = append(dst, i)
		}
	}
	return dst
}

func (p *pointwise) Betas(t, i int, nbr []int32, dst []int) int {
	minB := t
	for ai, k := range nbr {
		dst[ai] = p.Beta(t, i, int(k))
		minB = min(minB, dst[ai])
	}
	return minB
}

func (p *pointwise) CountActive(t0, t1 int) (cnt int) {
	for t, n := t0, p.Nodes(); t <= t1; t++ {
		for i := 0; i < n; i++ {
			if p.Active(t, i) {
				cnt++
			}
		}
	}
	return cnt
}

// fillBetas is the Betas of a source whose β is t − 1 everywhere.
func fillBetas(t int, nbr []int32, dst []int) int {
	if len(nbr) == 0 {
		return t
	}
	for ai := range nbr {
		dst[ai] = t - 1
	}
	return t - 1
}

// Synchronous is the schedule that recovers σ (Section 3.1): every node
// activates at every step and always reads the previous step's data. It
// is the lazy, O(1)-memory counterpart of schedule.Synchronous.
type Synchronous struct{ N, T int }

// Nodes implements Source.
func (s Synchronous) Nodes() int { return s.N }

// Horizon implements Source.
func (s Synchronous) Horizon() int { return s.T }

// Active implements Source: α(t) is every node.
func (s Synchronous) Active(t, i int) bool { return true }

// Beta implements Source: β ≡ t − 1.
func (s Synchronous) Beta(t, i, k int) int { return t - 1 }

// ActiveSet implements Batched: every node.
func (s Synchronous) ActiveSet(t int, dst []int) []int {
	for i := 0; i < s.N; i++ {
		dst = append(dst, i)
	}
	return dst
}

// Betas implements Batched.
func (s Synchronous) Betas(t, i int, nbr []int32, dst []int) int { return fillBetas(t, nbr, dst) }

// CountActive implements Batched: N per step.
func (s Synchronous) CountActive(t0, t1 int) int { return s.N * max(t1-t0+1, 0) }

// MaxLookback implements Source: the engine needs only one past state.
func (s Synchronous) MaxLookback() int { return 1 }

// FairPeriod implements Fair: every node activates every step and reads
// the immediately preceding state.
func (s Synchronous) FairPeriod() int { return 1 }

// Hashed is a lazy pseudo-random schedule: activations and β values are
// derived from (Seed, t, i, k) by integer hashing, so a horizon of any
// length costs O(1) memory — where schedule.Random materialises O(T·n²)
// β entries. Node i is guaranteed to activate whenever (t+i) mod MaxGap
// = 0 (bounded S1) and β never reaches further back than MaxStaleness
// (bounded S3), so Theorem 4's hypotheses hold on every draw.
type Hashed struct {
	N, T int
	Seed uint64
	// ActivationProbMille is the per-node, per-step activation
	// probability in thousandths; 0 means 500 (= 0.5).
	ActivationProbMille int
	// MaxGap bounds node silence (default 4n); MaxStaleness bounds
	// t − β (default 8).
	MaxGap, MaxStaleness int
}

func (h Hashed) gap() int {
	if h.MaxGap > 0 {
		return h.MaxGap
	}
	return 4 * h.N
}

func (h Hashed) staleness() int {
	if h.MaxStaleness > 0 {
		return h.MaxStaleness
	}
	return 8
}

// mixA and mixB are SplitMix64's increment and first multiplier; they
// also spread the two key halves before the finaliser.
const mixA, mixB = 0x9e3779b97f4a7c15, 0xbf58476d1ce4e5b9

// finalise is the SplitMix64 finaliser, the standard statistically-solid
// integer mixer.
func finalise(z uint64) uint64 {
	z += mixA
	z = (z ^ (z >> 30)) * mixB
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// mix hashes the packed key (a, b) under seed. The whole-step methods
// hoist seed ^ a·mixA — the part fixed for a step, or for an activation
// row — and finalise the rest per node or per neighbour.
func mix(seed, a, b uint64) uint64 { return finalise(seed ^ a*mixA ^ b*mixB) }

// Nodes implements Source.
func (h Hashed) Nodes() int { return h.N }

// Horizon implements Source.
func (h Hashed) Horizon() int { return h.T }

func (h Hashed) mille() int {
	if h.ActivationProbMille == 0 {
		return 500
	}
	return h.ActivationProbMille
}

// draw is node i's activation draw, uniform on [0, 1000), under the
// step's key Seed ^ t·mixA.
func draw(key uint64, i int) int { return int(finalise(key^uint64(i)*mixB) % 1000) }

// Active implements Source.
func (h Hashed) Active(t, i int) bool {
	return (t+i)%h.gap() == 0 || int(mix(h.Seed, uint64(t), uint64(i))%1000) < h.mille()
}

// ActiveSet implements Batched: one hash per unforced node; the forced
// ones (i ≡ −t mod MaxGap) are met by stepping, not by a modulo per node.
func (h Hashed) ActiveSet(t int, dst []int) []int {
	gap, p, key := h.gap(), h.mille(), h.Seed^uint64(t)*mixA
	forced := (gap - t%gap) % gap
	for i := 0; i < h.N; i++ {
		if i == forced {
			forced += gap
			dst = append(dst, i)
		} else if draw(key, i) < p {
			dst = append(dst, i)
		}
	}
	return dst
}

// CountActive implements Batched: one hash per (t, i), no branch and no
// division in the inner loop; the forced activations are then added
// where the draw missed them.
func (h Hashed) CountActive(t0, t1 int) (cnt int) {
	gap, p := h.gap(), h.mille()
	for t := t0; t <= t1; t++ {
		key := h.Seed ^ uint64(t)*mixA
		for i := 0; i < h.N; i++ {
			cnt += int(uint64(draw(key, i)-p) >> 63) // 1 when draw < p
		}
		for i := (gap - t%gap) % gap; i < h.N; i += gap {
			if draw(key, i) >= p {
				cnt++
			}
		}
	}
	return cnt
}

// Beta implements Source.
func (h Hashed) Beta(t, i, k int) int {
	lo := max(t-h.staleness(), 0)
	return lo + int(mix(h.Seed^0xa5a5a5a5, uint64(t)<<20|uint64(i), uint64(k))%uint64(t-lo))
}

// Betas implements Batched: the row's key is hashed once, and a
// power-of-two reach t − lo (the service's 4, the default 8) reduces the
// draw by a mask — exact for unsigned values — instead of a division.
func (h Hashed) Betas(t, i int, nbr []int32, dst []int) int {
	lo := max(t-h.staleness(), 0)
	span, minB := uint64(t-lo), t
	pow2, key := span&(span-1) == 0, h.Seed^0xa5a5a5a5^(uint64(t)<<20|uint64(i))*mixA
	for ai, k := range nbr {
		z := finalise(key ^ uint64(k)*mixB)
		if pow2 {
			z &= span - 1
		} else {
			z %= span
		}
		dst[ai] = lo + int(z)
		minB = min(minB, dst[ai])
	}
	return minB
}

// MaxLookback implements Source.
func (h Hashed) MaxLookback() int { return h.staleness() }

// FairPeriod implements Fair: the forced activation every MaxGap steps
// bounds node silence, and β never reaches further back than
// MaxStaleness.
func (h Hashed) FairPeriod() int {
	p := h.gap()
	if s := h.staleness(); s > p {
		p = s
	}
	return p
}

// RoundRobin activates exactly one node per step, cycling 0..N−1, always
// reading the previous step's data — the lazy counterpart of
// schedule.RoundRobin.
type RoundRobin struct{ N, T int }

// Nodes implements Source.
func (s RoundRobin) Nodes() int { return s.N }

// Horizon implements Source.
func (s RoundRobin) Horizon() int { return s.T }

// Active implements Source: α(t) = {(t−1) mod N}.
func (s RoundRobin) Active(t, i int) bool { return (t-1)%s.N == i }

// Beta implements Source: β ≡ t − 1.
func (s RoundRobin) Beta(t, i, k int) int { return t - 1 }

// ActiveSet implements Batched: the one node whose turn it is.
func (s RoundRobin) ActiveSet(t int, dst []int) []int { return append(dst, (t-1)%s.N) }

// Betas implements Batched.
func (s RoundRobin) Betas(t, i int, nbr []int32, dst []int) int { return fillBetas(t, nbr, dst) }

// CountActive implements Batched: one per step.
func (s RoundRobin) CountActive(t0, t1 int) int { return max(t1-t0+1, 0) }

// MaxLookback implements Source.
func (s RoundRobin) MaxLookback() int { return 1 }

// FairPeriod implements Fair: each node activates exactly once per cycle
// of N steps, always reading the previous step's data.
func (s RoundRobin) FairPeriod() int { return s.N }
