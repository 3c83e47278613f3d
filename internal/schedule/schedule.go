// Package schedule implements the Üresin & Dubois model of asynchronous
// computation used in Section 3.1 of the paper: a schedule is a pair of
// functions (α, β) where α(t) is the set of nodes that activate at time t
// and β(t, i, j) is the time at which the information node i uses from
// node j at time t was generated.
//
// The schedule axioms are:
//
//	S1: every node continues to activate indefinitely;
//	S2: information only travels forward in time, β(t,i,j) < t;
//	S3: stale information is eventually replaced.
//
// Over the finite horizons this package generates, S1 and S3 are enforced
// in their effective bounded forms: every node activates at least once in
// every window of length MaxGap, and β(t,i,j) ≥ t − MaxStaleness. Nothing
// constrains β to be monotone or injective, so messages are freely
// delayed, lost, reordered and duplicated — exactly the weak model the
// paper advertises.
package schedule

import (
	"fmt"
	"math/rand"
)

// Schedule is a finite-horizon (α, β) pair over n nodes and times 1..T.
type Schedule struct {
	N int
	T int
	// alpha[t][i] reports whether node i activates at time t; index 0 is
	// unused (time 0 is the initial state).
	alpha [][]bool
	// beta[t][i][j] is β(t, i, j) ∈ [0, t-1]; index t = 0 is unused.
	beta [][][]int
}

// New allocates an empty schedule (no activations; β ≡ t−1) over n nodes
// and horizon T.
func New(n, t int) *Schedule {
	s := &Schedule{N: n, T: t}
	s.alpha = make([][]bool, t+1)
	s.beta = make([][][]int, t+1)
	for tt := 1; tt <= t; tt++ {
		s.alpha[tt] = make([]bool, n)
		s.beta[tt] = make([][]int, n)
		for i := 0; i < n; i++ {
			s.beta[tt][i] = make([]int, n)
			for j := 0; j < n; j++ {
				s.beta[tt][i][j] = tt - 1
			}
		}
	}
	return s
}

// Nodes returns n, the node count. Together with Horizon, Active, Beta
// and MaxLookback it makes *Schedule satisfy the engine's Source
// interface.
func (s *Schedule) Nodes() int { return s.N }

// Horizon returns T, the last time step.
func (s *Schedule) Horizon() int { return s.T }

// MaxLookback returns the largest t − β(t, i, k) over the activations the
// evaluator will actually perform (i ∈ α(t)), i.e. the history window a
// bounded evaluator must retain to run this schedule. It is at least 1.
func (s *Schedule) MaxLookback() int {
	max := 1
	for t := 1; t <= s.T; t++ {
		for i := 0; i < s.N; i++ {
			if !s.alpha[t][i] {
				continue
			}
			for _, b := range s.beta[t][i] {
				if t-b > max {
					max = t - b
				}
			}
		}
	}
	return max
}

// Fairness returns the recorded schedule's empirical fairness period:
// the smallest P such that every node activates at least once in every
// window of P consecutive steps and no activation reads data more than P
// steps stale — the bound a lazy source would advertise via the engine's
// Fair contract. A recorded schedule still makes no promise beyond its
// horizon, which is why *Schedule deliberately does not implement Fair
// itself; Fairness exists to compare recordings against their generators'
// declared periods.
func (s *Schedule) Fairness() int {
	p := 1
	for i := 0; i < s.N; i++ {
		last := 0
		for t := 1; t <= s.T; t++ {
			if !s.alpha[t][i] {
				continue
			}
			if t-last > p {
				p = t - last
			}
			last = t
			for _, b := range s.beta[t][i] {
				if t-b > p {
					p = t - b
				}
			}
		}
		if s.T-last > p {
			p = s.T - last
		}
	}
	return p
}

// Active reports whether node i ∈ α(t).
func (s *Schedule) Active(t, i int) bool { return s.alpha[t][i] }

// SetActive marks node i as activating at time t.
func (s *Schedule) SetActive(t, i int, on bool) { s.alpha[t][i] = on }

// Beta returns β(t, i, j).
func (s *Schedule) Beta(t, i, j int) int { return s.beta[t][i][j] }

// SetBeta assigns β(t, i, j) = b; it panics unless 0 ≤ b < t (S2).
func (s *Schedule) SetBeta(t, i, j, b int) {
	if b < 0 || b >= t {
		panic(fmt.Sprintf("schedule: β(%d,%d,%d)=%d violates S2", t, i, j, b))
	}
	s.beta[t][i][j] = b
}

// Validate checks S2 structurally and the bounded forms of S1 and S3:
// every node activates at least once in every window of maxGap consecutive
// times, and β(t,i,j) ≥ t − maxStaleness. It returns a descriptive error
// for the first violation.
func (s *Schedule) Validate(maxGap, maxStaleness int) error {
	for i := 0; i < s.N; i++ {
		last := 0
		for t := 1; t <= s.T; t++ {
			if s.alpha[t][i] {
				if t-last > maxGap {
					return fmt.Errorf("S1: node %d silent for %d > %d steps before t=%d", i, t-last, maxGap, t)
				}
				last = t
			}
		}
		if s.T-last > maxGap {
			return fmt.Errorf("S1: node %d silent for the final %d > %d steps", i, s.T-last, maxGap)
		}
	}
	for t := 1; t <= s.T; t++ {
		for i := 0; i < s.N; i++ {
			for j := 0; j < s.N; j++ {
				b := s.beta[t][i][j]
				if b >= t {
					return fmt.Errorf("S2: β(%d,%d,%d)=%d ≥ t", t, i, j, b)
				}
				if t-b > maxStaleness {
					return fmt.Errorf("S3: β(%d,%d,%d)=%d is %d > %d steps stale", t, i, j, b, t-b, maxStaleness)
				}
			}
		}
	}
	return nil
}

// Synchronous returns the schedule that recovers σ (Section 3.1): every
// node activates at every time and always uses data from the previous
// step.
func Synchronous(n, t int) *Schedule {
	s := New(n, t)
	for tt := 1; tt <= t; tt++ {
		for i := 0; i < n; i++ {
			s.alpha[tt][i] = true
		}
	}
	return s
}

// RoundRobin returns the schedule in which exactly one node activates per
// step, cycling 0, 1, ..., n−1, always reading the previous step's data.
func RoundRobin(n, t int) *Schedule {
	s := New(n, t)
	for tt := 1; tt <= t; tt++ {
		s.alpha[tt][(tt-1)%n] = true
	}
	return s
}

// Options configures random schedule generation.
type Options struct {
	// ActivationProb is the per-node, per-step activation probability.
	ActivationProb float64
	// MaxGap forces an activation if a node would otherwise stay silent
	// longer than this (bounded S1). Zero means n*4.
	MaxGap int
	// MaxStaleness bounds t − β(t,i,j) (bounded S3). Zero means n*4.
	// Values > 1 allow messages to be delayed; because β may decrease
	// between consecutive steps, reordering and duplication arise
	// naturally; values skipped entirely model loss.
	MaxStaleness int
}

func (o Options) withDefaults(n int) Options {
	if o.ActivationProb == 0 {
		o.ActivationProb = 0.5
	}
	if o.MaxGap == 0 {
		o.MaxGap = n * 4
	}
	if o.MaxStaleness == 0 {
		o.MaxStaleness = n * 4
	}
	return o
}

// Random draws a schedule with the given fault profile. The result always
// satisfies Validate(opts.MaxGap, opts.MaxStaleness).
func Random(rng *rand.Rand, n, t int, opts Options) *Schedule {
	opts = opts.withDefaults(n)
	s := New(n, t)
	lastAct := make([]int, n)
	for tt := 1; tt <= t; tt++ {
		for i := 0; i < n; i++ {
			if rng.Float64() < opts.ActivationProb || tt-lastAct[i] >= opts.MaxGap {
				s.alpha[tt][i] = true
				lastAct[i] = tt
			}
			for j := 0; j < n; j++ {
				lo := tt - opts.MaxStaleness
				if lo < 0 {
					lo = 0
				}
				s.beta[tt][i][j] = lo + rng.Intn(tt-lo)
			}
		}
	}
	return s
}

// Adversarial draws a schedule biased towards worst-case behaviour: sparse
// activations at the S1 boundary and maximally stale, non-monotone β
// values. Used by the convergence experiments to stress Theorem 4's "for
// all schedules" claim.
func Adversarial(rng *rand.Rand, n, t int, maxGap, maxStaleness int) *Schedule {
	s := New(n, t)
	lastAct := make([]int, n)
	for tt := 1; tt <= t; tt++ {
		for i := 0; i < n; i++ {
			// Activate as late as S1 allows, with a small chance of an
			// early surprise activation.
			if tt-lastAct[i] >= maxGap || rng.Float64() < 0.05 {
				s.alpha[tt][i] = true
				lastAct[i] = tt
			}
			for j := 0; j < n; j++ {
				lo := tt - maxStaleness
				if lo < 0 {
					lo = 0
				}
				// Alternate between the stalest and the freshest data to
				// maximise reordering.
				if rng.Intn(2) == 0 {
					s.beta[tt][i][j] = lo
				} else {
					s.beta[tt][i][j] = tt - 1
				}
			}
		}
	}
	return s
}
