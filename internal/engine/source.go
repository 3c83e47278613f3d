package engine

// Source supplies the (α, β) schedule driving a run: Active is α and Beta
// is β in the Üresin & Dubois model of Section 3.1. *schedule.Schedule
// satisfies Source; the types in this file are lazy sources that need no
// O(T·n²) materialisation, which matters once horizons reach production
// scale.
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
}

// Bounded is implemented by sources that know how far back β can reach.
// The engine sizes its history ring from MaxLookback when Config leaves
// HistoryWindow at auto; sources without it fall back to keeping the full
// history.
type Bounded interface {
	// MaxLookback returns the maximum t − β(t, i, k) over activations the
	// run performs; it is at least 1.
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

// Counting is implemented by sources that can count the activations of
// steps t0..t1 — |{(t, i) : t0 ≤ t ≤ t1, i ∈ α(t)}|, 0 when t1 < t0 —
// without visiting them one Active call at a time; the engine advances a
// certified fixed point across a quiescent interlude by that count (see
// run.step).
type Counting interface {
	CountActive(t0, t1 int) int
}

// countActive counts the activations of steps t0..t1 through the
// source's Counting capability, or by asking Active when it has none.
func countActive(src Source, t0, t1 int) (cnt int) {
	if c, ok := src.(Counting); ok {
		return c.CountActive(t0, t1)
	}
	for t := t0; t <= t1; t++ {
		for i, n := 0, src.Nodes(); i < n; i++ {
			if src.Active(t, i) {
				cnt++
			}
		}
	}
	return cnt
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

// CountActive implements Counting: N per step.
func (s Synchronous) CountActive(t0, t1 int) int { return s.N * max(t1-t0+1, 0) }

// Beta implements Source: β ≡ t − 1.
func (s Synchronous) Beta(t, i, k int) int { return t - 1 }

// MaxLookback implements Bounded: the engine needs only one past state.
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

// mix is SplitMix64 over the packed key, the standard statistically-solid
// integer finaliser.
func mix(seed, a, b uint64) uint64 {
	z := seed ^ (a * 0x9e3779b97f4a7c15) ^ (b * 0xbf58476d1ce4e5b9)
	z += 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

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

// draw is node i's activation draw at t, uniform on [0, 1000).
func (h Hashed) draw(t, i int) int { return int(mix(h.Seed, uint64(t), uint64(i)) % 1000) }

// Active implements Source.
func (h Hashed) Active(t, i int) bool {
	return (t+i)%h.gap() == 0 || h.draw(t, i) < h.mille()
}

// CountActive implements Counting: one hash per (t, i), no branch and no
// division in the inner loop; the forced activations (i ≡ −t mod MaxGap)
// are then added where the draw missed them.
func (h Hashed) CountActive(t0, t1 int) (cnt int) {
	gap, p := h.gap(), h.mille()
	for t := t0; t <= t1; t++ {
		for i := 0; i < h.N; i++ {
			cnt += int(uint64(h.draw(t, i)-p) >> 63) // 1 when draw < p
		}
		for i := (gap - t%gap) % gap; i < h.N; i += gap {
			if h.draw(t, i) >= p {
				cnt++
			}
		}
	}
	return cnt
}

// Beta implements Source.
func (h Hashed) Beta(t, i, k int) int {
	lo := t - h.staleness()
	if lo < 0 {
		lo = 0
	}
	return lo + int(mix(h.Seed^0xa5a5a5a5, uint64(t)<<20|uint64(i), uint64(k))%uint64(t-lo))
}

// MaxLookback implements Bounded.
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

// CountActive implements Counting: one per step.
func (s RoundRobin) CountActive(t0, t1 int) int { return max(t1-t0+1, 0) }

// Beta implements Source: β ≡ t − 1.
func (s RoundRobin) Beta(t, i, k int) int { return t - 1 }

// MaxLookback implements Bounded.
func (s RoundRobin) MaxLookback() int { return 1 }

// FairPeriod implements Fair: each node activates exactly once per cycle
// of N steps, always reading the previous step's data.
func (s RoundRobin) FairPeriod() int { return s.N }
