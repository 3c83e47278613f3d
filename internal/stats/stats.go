// Package stats provides the small descriptive-statistics toolkit the
// experiment harness uses to summarise convergence-time distributions:
// means, percentiles and a one-line summary.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Sample accumulates observations.
type Sample struct {
	xs     []float64
	sorted bool
}

// Add appends an observation.
func (s *Sample) Add(x float64) {
	s.xs = append(s.xs, x)
	s.sorted = false
}

// AddInt appends an integer observation.
func (s *Sample) AddInt(x int64) { s.Add(float64(x)) }

// N returns the number of observations.
func (s *Sample) N() int { return len(s.xs) }

func (s *Sample) sortInPlace() {
	if !s.sorted {
		sort.Float64s(s.xs)
		s.sorted = true
	}
}

// Mean returns the arithmetic mean (0 for an empty sample).
func (s *Sample) Mean() float64 {
	if len(s.xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range s.xs {
		sum += x
	}
	return sum / float64(len(s.xs))
}

// Max returns the largest observation (0 for an empty sample).
func (s *Sample) Max() float64 {
	if len(s.xs) == 0 {
		return 0
	}
	s.sortInPlace()
	return s.xs[len(s.xs)-1]
}

// Percentile returns the p-th percentile (0 ≤ p ≤ 100) by
// nearest-rank.
func (s *Sample) Percentile(p float64) float64 {
	if len(s.xs) == 0 {
		return 0
	}
	s.sortInPlace()
	if p <= 0 {
		return s.xs[0]
	}
	if p >= 100 {
		return s.xs[len(s.xs)-1]
	}
	rank := int(math.Ceil(p / 100 * float64(len(s.xs))))
	if rank < 1 {
		rank = 1
	}
	return s.xs[rank-1]
}

// Summary renders "n=… mean=… p50=… p95=… max=…".
func (s *Sample) Summary() string {
	return fmt.Sprintf("n=%d mean=%.1f p50=%.0f p95=%.0f max=%.0f",
		s.N(), s.Mean(), s.Percentile(50), s.Percentile(95), s.Max())
}
