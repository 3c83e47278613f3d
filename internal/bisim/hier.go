package bisim

import (
	"fmt"

	"repro/internal/algebras"
	"repro/internal/core"
	"repro/internal/paths"
	"repro/internal/topology"
)

// This file builds Section 8.4's motivating instance. Real BGP routes
// carry only the AS-level path, so the 𝑝𝑎𝑡ℎ function demanded by
// Definition 14 does not exist for them. The remedy sketched in the
// paper: run a *shadow* protocol whose routes additionally remember the
// router-level trajectory but whose decisions never read it. The shadow
// and the real protocol are bisimilar under the mapping that forgets the
// router trajectory, so convergence transfers.

// BGPRoute is the "real" protocol's route: a hop distance and the
// AS-level path (most recent AS first, consecutive duplicates merged —
// entering a new router of the same AS does not grow it).
type BGPRoute struct {
	Invalid bool
	Dist    algebras.NatInf
	ASPath  []int
}

// ShadowRoute is the shadow protocol's route: the same decision-relevant
// fields plus the inert router-level trajectory (most recent router
// first).
type ShadowRoute struct {
	BGPRoute
	Routers []int
}

// compareBGP orders routes BGP-style: valid beats invalid, then shorter
// AS path, then smaller distance, then lexicographic AS path.
func compareBGP(a, b BGPRoute) int {
	switch {
	case a.Invalid && b.Invalid:
		return 0
	case a.Invalid:
		return 1
	case b.Invalid:
		return -1
	}
	if d := len(a.ASPath) - len(b.ASPath); d != 0 {
		return sign(d)
	}
	switch {
	case a.Dist < b.Dist:
		return -1
	case a.Dist > b.Dist:
		return 1
	}
	return compareInts(a.ASPath, b.ASPath)
}

func sign(d int) int {
	switch {
	case d < 0:
		return -1
	case d > 0:
		return 1
	}
	return 0
}

func compareInts(a, b []int) int {
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] != b[i] {
			return sign(a[i] - b[i])
		}
	}
	return sign(len(a) - len(b))
}

// BGPAlg is the AS-path algebra (the "real" protocol).
type BGPAlg struct {
	// Limit bounds Dist; beyond it routes become invalid, keeping the
	// carrier finite as Theorem 7 requires.
	Limit algebras.NatInf
}

// Choice implements ⊕.
func (g BGPAlg) Choice(a, b BGPRoute) BGPRoute {
	if compareBGP(a, b) <= 0 {
		return a
	}
	return b
}

// Trivial implements 0: distance zero, empty AS path.
func (BGPAlg) Trivial() BGPRoute { return BGPRoute{} }

// Invalid implements ∞.
func (BGPAlg) Invalid() BGPRoute { return BGPRoute{Invalid: true} }

// Equal implements route equality.
func (BGPAlg) Equal(a, b BGPRoute) bool { return compareBGP(a, b) == 0 }

// Format implements route rendering.
func (BGPAlg) Format(r BGPRoute) string {
	if r.Invalid {
		return "∞"
	}
	return fmt.Sprintf("d=%s as=%v", r.Dist, r.ASPath)
}

// extendBGP is the shared decision-relevant edge semantics: add the hop
// weight, and extend the AS path with AS(i), rejecting AS-level loops.
// It returns (route, ok).
func extendBGP(limit algebras.NatInf, asI, asJ int, w algebras.NatInf, r BGPRoute) (BGPRoute, bool) {
	if r.Invalid {
		return BGPRoute{Invalid: true}, false
	}
	d := r.Dist.Add(w)
	if d > limit {
		return BGPRoute{Invalid: true}, false
	}
	asPath := r.ASPath
	if len(asPath) == 0 {
		// First hop away from the origin: record the origin AS.
		asPath = []int{asJ}
	}
	if asI != asPath[0] {
		for _, a := range asPath {
			if a == asI {
				return BGPRoute{Invalid: true}, false // AS loop
			}
		}
		next := make([]int, 0, len(asPath)+1)
		next = append(next, asI)
		asPath = append(next, asPath...)
	}
	return BGPRoute{Dist: d, ASPath: asPath}, true
}

// Edge builds the real protocol's edge weight for the router link
// (i ← j), where asOf maps routers to ASes.
func (g BGPAlg) Edge(i, j int, asOf []int, w algebras.NatInf) core.Edge[BGPRoute] {
	name := fmt.Sprintf("bgp(%d←%d)", i, j)
	return core.Fn[BGPRoute](name, func(r BGPRoute) BGPRoute {
		out, _ := extendBGP(g.Limit, asOf[i], asOf[j], w, r)
		return out
	})
}

// ShadowAlg is the shadow algebra: the same decision procedure with an
// inert router trajectory appended as the final tie-break (so ⊕ remains
// selective on routes the real protocol cannot distinguish).
type ShadowAlg struct {
	Limit algebras.NatInf
}

// Choice implements ⊕: the real order first, the inert trajectory only
// to break exact real-level ties deterministically.
func (s ShadowAlg) Choice(a, b ShadowRoute) ShadowRoute {
	if c := compareBGP(a.BGPRoute, b.BGPRoute); c != 0 {
		if c < 0 {
			return a
		}
		return b
	}
	if compareInts(a.Routers, b.Routers) <= 0 {
		return a
	}
	return b
}

// Trivial implements 0.
func (ShadowAlg) Trivial() ShadowRoute { return ShadowRoute{} }

// Invalid implements ∞.
func (ShadowAlg) Invalid() ShadowRoute {
	return ShadowRoute{BGPRoute: BGPRoute{Invalid: true}}
}

// Equal implements route equality — the trajectory counts, so distinct
// shadows of one real route are distinct shadow routes.
func (s ShadowAlg) Equal(a, b ShadowRoute) bool {
	if a.Invalid || b.Invalid {
		return a.Invalid == b.Invalid
	}
	return compareBGP(a.BGPRoute, b.BGPRoute) == 0 && compareInts(a.Routers, b.Routers) == 0
}

// Format implements route rendering.
func (s ShadowAlg) Format(r ShadowRoute) string {
	if r.Invalid {
		return "∞"
	}
	return fmt.Sprintf("d=%s as=%v via=%v", r.Dist, r.ASPath, r.Routers)
}

// Edge builds the shadow edge weight: identical accept/reject and
// decision fields, plus the trajectory grown by the sending router. The
// trajectory is never consulted.
func (s ShadowAlg) Edge(i, j int, asOf []int, w algebras.NatInf) core.Edge[ShadowRoute] {
	name := fmt.Sprintf("shadow(%d←%d)", i, j)
	return core.Fn[ShadowRoute](name, func(r ShadowRoute) ShadowRoute {
		real, ok := extendBGP(s.Limit, asOf[i], asOf[j], w, r.BGPRoute)
		if !ok {
			return s.Invalid()
		}
		routers := make([]int, 0, len(r.Routers)+2)
		routers = append(routers, i)
		if len(r.Routers) == 0 {
			routers = append(routers, j)
		} else {
			routers = append(routers, r.Routers...)
		}
		return ShadowRoute{BGPRoute: real, Routers: routers}
	})
}

// Forget is the bisimulation mapping h: drop the router trajectory.
func Forget(r ShadowRoute) BGPRoute { return r.BGPRoute }

// HierarchicalInstance wires the two protocols over the same router-level
// topology and returns the bisimulation pair. asOf[i] is the AS number of
// router i.
func HierarchicalInstance(g topology.Graph, asOf []int, limit algebras.NatInf) Pair[ShadowRoute, BGPRoute] {
	shadow := ShadowAlg{Limit: limit}
	bgp := BGPAlg{Limit: limit}
	adjA := topology.Build[ShadowRoute](g, func(i, j int) core.Edge[ShadowRoute] {
		return shadow.Edge(i, j, asOf, 1)
	})
	adjB := topology.Build[BGPRoute](g, func(i, j int) core.Edge[BGPRoute] {
		return bgp.Edge(i, j, asOf, 1)
	})
	return Pair[ShadowRoute, BGPRoute]{
		AlgA: shadow, AlgB: bgp, AdjA: adjA, AdjB: adjB,
		H: Forget,
	}
}

// TwoTierASes builds a 6-router, 3-AS test network: AS 0 = routers
// {0, 1}, AS 1 = routers {2, 3}, AS 2 = routers {4, 5}, with intra-AS
// links and inter-AS links 1–2 and 3–4 and 5–0 forming a ring of ASes.
func TwoTierASes() (topology.Graph, []int) {
	g := topology.Graph{N: 6}
	add := func(i, j int) {
		g.Arcs = append(g.Arcs, paths.Arc{From: i, To: j}, paths.Arc{From: j, To: i})
	}
	add(0, 1) // intra AS0
	add(2, 3) // intra AS1
	add(4, 5) // intra AS2
	add(1, 2) // AS0 — AS1
	add(3, 4) // AS1 — AS2
	add(5, 0) // AS2 — AS0
	return g, []int{0, 0, 1, 1, 2, 2}
}
