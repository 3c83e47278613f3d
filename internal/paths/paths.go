// Package paths implements the simple-path model of Section 5.1 of the
// paper: a path is a contiguous sequence of directed arcs, the empty path
// [] is the path of the trivial route, and the distinguished path ⊥ is the
// path of the invalid route. Paths are immutable values; extension returns
// a fresh path and never mutates its receiver. Table (intern.go) is the
// hot-loop form of the same model: it hash-conses paths into integer
// ids, so that extension, equality and node membership each cost O(1).
package paths

import (
	"fmt"
	"strings"
)

// Arc is a single directed edge (From, To) in a path.
type Arc struct {
	From int
	To   int
}

// Path is either the invalid path ⊥, the empty path [], or a contiguous
// sequence of arcs [(v0,v1), (v1,v2), ...]. The zero value is the empty
// path []. Paths are compared by value; two paths are equal iff they are
// both ⊥ or have identical arc sequences.
type Path struct {
	invalid bool
	arcs    []Arc
}

// Invalid is the distinguished path ⊥ of the invalid route.
var Invalid = Path{invalid: true}

// Empty is the empty path [] of the trivial route.
var Empty = Path{}

// FromArcs builds a path from the given arc sequence. It returns ⊥ if the
// sequence is not contiguous, contains a repeated node, or contains a
// self-loop, mirroring the constraints on SimplePath in the paper's Agda
// development.
func FromArcs(arcs ...Arc) Path {
	p := Empty
	for i := len(arcs) - 1; i >= 0; i-- {
		p = p.Extend(arcs[i].From, arcs[i].To)
		if p.IsInvalid() {
			return Invalid
		}
	}
	return p
}

// FromNodes builds the path visiting the given nodes in order, e.g.
// FromNodes(1, 2, 3) is [(1,2), (2,3)]. A single node yields the empty
// path, no nodes yields the empty path, and any repetition yields ⊥.
func FromNodes(nodes ...int) Path {
	if len(nodes) < 2 {
		return Empty
	}
	arcs := make([]Arc, len(nodes)-1)
	for i := 0; i < len(nodes)-1; i++ {
		arcs[i] = Arc{From: nodes[i], To: nodes[i+1]}
	}
	return FromArcs(arcs...)
}

// IsInvalid reports whether p is the invalid path ⊥.
func (p Path) IsInvalid() bool { return p.invalid }

// IsEmpty reports whether p is the empty path [].
func (p Path) IsEmpty() bool { return !p.invalid && len(p.arcs) == 0 }

// Len returns the number of arcs in p. The length of ⊥ is 0 by convention;
// callers must check IsInvalid first where the distinction matters.
func (p Path) Len() int { return len(p.arcs) }

// Arcs returns a copy of the arc sequence of p (nil for ⊥ and []).
func (p Path) Arcs() []Arc {
	if len(p.arcs) == 0 {
		return nil
	}
	out := make([]Arc, len(p.arcs))
	copy(out, p.arcs)
	return out
}

// Source returns the first node of p, i.e. the node that owns the route
// carried along p. It returns (0, false) for ⊥ and for [].
func (p Path) Source() (int, bool) {
	if p.invalid || len(p.arcs) == 0 {
		return 0, false
	}
	return p.arcs[0].From, true
}

// Destination returns the last node of p. It returns (0, false) for ⊥ and
// for [].
func (p Path) Destination() (int, bool) {
	if p.invalid || len(p.arcs) == 0 {
		return 0, false
	}
	return p.arcs[len(p.arcs)-1].To, true
}

// Contains reports whether node v appears anywhere in p (as the endpoint of
// any arc). The invalid path and the empty path contain no nodes.
func (p Path) Contains(v int) bool {
	if p.invalid {
		return false
	}
	for _, a := range p.arcs {
		if a.From == v || a.To == v {
			return true
		}
	}
	return false
}

// Nodes returns the nodes visited by p in order, or nil for ⊥ and [].
func (p Path) Nodes() []int {
	if p.invalid || len(p.arcs) == 0 {
		return nil
	}
	out := make([]int, 0, len(p.arcs)+1)
	out = append(out, p.arcs[0].From)
	for _, a := range p.arcs {
		out = append(out, a.To)
	}
	return out
}

// CanExtend reports whether prepending the arc (i, j) to p yields a simple
// path: p must not be ⊥, j must be the source of p (any j is allowed when p
// is empty), i must not already appear in p, and i must differ from j.
// This is the (i,j) ⇿? p plus i ∉? p test of Section 7. Nodes are
// numbered from 0, so an arc with a negative node extends nothing.
func (p Path) CanExtend(i, j int) bool {
	if p.invalid || i == j || i|j < 0 {
		return false
	}
	if len(p.arcs) > 0 && p.arcs[0].From != j {
		return false
	}
	// When p is non-empty, j == src(p) is already a node of p; when p is
	// empty, j joins as the sole other endpoint. Either way i != j above
	// plus the Contains check keeps the result simple.
	return !p.Contains(i)
}

// Extend returns (i,j) :: p, or ⊥ if the extension would not be a simple
// contiguous path. Extending ⊥ yields ⊥.
func (p Path) Extend(i, j int) Path {
	if !p.CanExtend(i, j) {
		return Invalid
	}
	arcs := make([]Arc, 0, len(p.arcs)+1)
	arcs = append(arcs, Arc{From: i, To: j})
	arcs = append(arcs, p.arcs...)
	return Path{arcs: arcs}
}

// Equal reports whether p and q are the same path.
func (p Path) Equal(q Path) bool {
	if p.invalid || q.invalid {
		return p.invalid == q.invalid
	}
	if len(p.arcs) != len(q.arcs) {
		return false
	}
	for i := range p.arcs {
		if p.arcs[i] != q.arcs[i] {
			return false
		}
	}
	return true
}

// Compare orders paths totally: ⊥ is greatest (least preferred), then paths
// compare first by length (shorter is smaller) and then lexicographically by
// arc sequence. It returns -1, 0 or +1. This is the tie-breaking order used
// by step 3 and 4 of the Section 7 decision procedure.
func (p Path) Compare(q Path) int {
	switch {
	case p.invalid && q.invalid:
		return 0
	case p.invalid:
		return 1
	case q.invalid:
		return -1
	}
	if d := len(p.arcs) - len(q.arcs); d != 0 {
		if d < 0 {
			return -1
		}
		return 1
	}
	for i := range p.arcs {
		if d := compareArc(p.arcs[i], q.arcs[i]); d != 0 {
			return d
		}
	}
	return 0
}

func compareArc(a, b Arc) int {
	switch {
	case a.From < b.From:
		return -1
	case a.From > b.From:
		return 1
	case a.To < b.To:
		return -1
	case a.To > b.To:
		return 1
	}
	return 0
}

// String renders p as ⊥, [], or a node sequence such as "1->2->3".
func (p Path) String() string {
	if p.invalid {
		return "⊥"
	}
	if len(p.arcs) == 0 {
		return "[]"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%d", p.arcs[0].From)
	for _, a := range p.arcs {
		fmt.Fprintf(&b, "->%d", a.To)
	}
	return b.String()
}

// EnumerateAllSimple enumerates every simple path over nodes 0..n-1 with
// any destination, including the empty path exactly once. This is the set
// 𝒫 of Section 5.1 over the complete n-node graph.
func EnumerateAllSimple(n int) []Path {
	out := []Path{Empty}
	for dst := 0; dst < n; dst++ {
		for _, p := range EnumerateSimple(n, dst) {
			if !p.IsEmpty() {
				out = append(out, p)
			}
		}
	}
	return out
}

// EnumerateSimple enumerates every simple path over nodes 0..n-1 whose
// destination is dst, including the empty path, in no particular order.
// Paths are generated over the complete graph; callers restricting to a
// topology should filter by edge membership or use weights that map missing
// arcs to the invalid route. The count grows super-exponentially with n;
// intended for the small networks used by the ultrametric experiments.
func EnumerateSimple(n, dst int) []Path {
	out := []Path{Empty}
	// Grow paths backwards from dst: a path ending at dst is built by
	// repeatedly prepending arcs (i, src).
	var grow func(p Path)
	grow = func(p Path) {
		head := dst
		if s, ok := p.Source(); ok {
			head = s
		}
		for i := 0; i < n; i++ {
			if i == head || p.Contains(i) || (p.IsEmpty() && i == dst) {
				continue
			}
			q := p.Extend(i, head)
			if q.IsInvalid() {
				continue
			}
			out = append(out, q)
			grow(q)
		}
	}
	grow(Empty)
	return out
}
