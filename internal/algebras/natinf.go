// Package algebras provides concrete routing algebras: the four Table 2
// examples (shortest, longest, widest and most-reliable paths), the
// RIP-style bounded hop-count algebra whose finite carrier satisfies the
// Theorem 7 precondition, a shortest-paths algebra with conditional
// filtering policies (the Section 1 motivating example of a policy-rich,
// non-distributive language), and a lexicographic product combinator.
package algebras

import (
	"math"
	"strconv"
)

// NatInf is ℕ∞: a natural number or the point at infinity. The point at
// infinity is represented by the sentinel Inf; arithmetic saturates so that
// Inf is absorbing for addition.
type NatInf int64

// Inf is the point at infinity of ℕ∞.
const Inf NatInf = math.MaxInt64

// IsInf reports whether x is the point at infinity.
func (x NatInf) IsInf() bool { return x == Inf }

// Add returns x + y, saturating at Inf.
func (x NatInf) Add(y NatInf) NatInf {
	if x.IsInf() || y.IsInf() {
		return Inf
	}
	if s := x + y; s >= 0 && s >= x {
		return s
	}
	return Inf
}

// Min returns the smaller of x and y.
func (x NatInf) Min(y NatInf) NatInf {
	if x < y {
		return x
	}
	return y
}

// Max returns the larger of x and y.
func (x NatInf) Max(y NatInf) NatInf {
	if x > y {
		return x
	}
	return y
}

// String renders x, using ∞ for the point at infinity.
func (x NatInf) String() string {
	if x.IsInf() {
		return "∞"
	}
	return strconv.FormatInt(int64(x), 10)
}
