package expr

import (
	"fmt"
	"io"
	"slices"

	"repro/internal/algebras"
	"repro/internal/core"
	"repro/internal/gadgets"
	"repro/internal/gaorexford"
	"repro/internal/policy"
)

// Table1Row is one (algebra, property) verdict of the E1 matrix.
type Table1Row struct {
	Algebra  string
	Property core.Property
	Holds    bool
	Checked  int
}

// Table1Result is the regenerated Table 1: each algebraic law of the paper
// evaluated against each algebra in the repository.
type Table1Result struct {
	Rows []Table1Row
}

// Verdict returns the verdict for one algebra and property.
func (r Table1Result) Verdict(algebra string, p core.Property) (bool, bool) {
	for _, row := range r.Rows {
		if row.Algebra == algebra && row.Property == p {
			return row.Holds, true
		}
	}
	return false, false
}

// OK reports whether the matrix agrees with the paper: every algebra
// satisfies the required laws, except bgp-med, whose associativity must
// fail — that failure is the point of its row (the Section 7 MED aside).
func (r Table1Result) OK() bool {
	for _, row := range r.Rows {
		if row.Algebra != "bgp-med" && !row.Holds && slices.Contains(core.RequiredProperties(), row.Property) {
			return false
		}
	}
	holds, found := r.Verdict("bgp-med", core.Associative)
	return found && !holds
}

// Table1 regenerates Table 1 of the paper as an executable property
// matrix (experiment E1). The paper presents the laws as definitions; here
// every cell is machine-checked over the algebra's universe (or a finite
// sample for infinite carriers).
func Table1(w io.Writer) Table1Result {
	section(w, "E1 (Table 1)", "algebraic property matrix")
	var res Table1Result
	add := func(name string, reports []core.Report) {
		for _, rep := range reports {
			res.Rows = append(res.Rows, Table1Row{
				Algebra: name, Property: rep.Property, Holds: rep.Holds, Checked: rep.Checked,
			})
		}
	}

	natSample := []algebras.NatInf{0, 1, 2, 3, 5, 10, algebras.Inf}

	sp := algebras.ShortestPaths{}
	add("shortest-paths", checkMatrix[algebras.NatInf](sp, core.Sample[algebras.NatInf]{
		Routes: natSample,
		Edges:  []core.Edge[algebras.NatInf]{sp.AddEdge(1), sp.AddEdge(2)},
	}))

	lp := algebras.LongestPaths{}
	add("longest-paths", checkMatrix[algebras.NatInf](lp, core.Sample[algebras.NatInf]{
		Routes: natSample,
		Edges:  []core.Edge[algebras.NatInf]{lp.AddEdge(1), lp.AddEdge(2)},
	}))

	wp := algebras.WidestPaths{}
	add("widest-paths", checkMatrix[algebras.NatInf](wp, core.Sample[algebras.NatInf]{
		Routes: natSample,
		Edges:  []core.Edge[algebras.NatInf]{wp.CapEdge(2), wp.CapEdge(5)},
	}))

	mr := algebras.MostReliable{}
	add("most-reliable", checkMatrix[float64](mr, core.Sample[float64]{
		Routes: []float64{0, 0.25, 0.5, 0.75, 1},
		Edges:  []core.Edge[float64]{mr.MulEdge(0.5), mr.MulEdge(0.25)},
	}))

	// Note: a threshold filter (DistanceAtMost) is monotone and therefore
	// still distributes over min; the parity filter below is the genuine
	// Equation 2 counterexample.
	rip := algebras.RIP()
	add("rip-16+filtering", checkMatrix[algebras.NatInf](rip, core.UniverseSample[algebras.NatInf](rip, rip, []core.Edge[algebras.NatInf]{
		rip.AddEdge(1),
		rip.ConditionalEdge(1, algebras.DistanceAtMost(7)),
		rip.ConditionalEdge(1, algebras.DistanceEven()),
	})))

	gr := gaorexford.Algebra{MaxHops: 5}
	add("gao-rexford", checkMatrix[gaorexford.Route](gr, core.UniverseSample[gaorexford.Route](gr, gr, gr.Edges())))

	grBroken := gaorexford.Algebra{MaxHops: 5}
	add("gao-rexford+hidden-lpref", checkMatrix[gaorexford.Route](grBroken,
		core.UniverseSample[gaorexford.Route](grBroken, grBroken,
			append(grBroken.Edges(), grBroken.ViolatingEdge()))))

	polAlg, polAdj := policyRing()
	add("section7-policy", checkMatrix[policy.Route](polAlg, core.Sample[policy.Route]{
		Routes: policySample(),
		Edges:  polAdj.EdgeList(),
	}))

	// The MED pathology (Section 7): compared only among same-neighbour
	// routes, MED breaks associativity — the one *required* law violation
	// in the matrix, and the reason the safe-by-design algebra ignores
	// the attribute.
	med := algebras.MED{}
	ma, mb, mc := med.AssociativityCounterexample()
	add("bgp-med", checkMatrix[algebras.MEDRoute](med, core.Sample[algebras.MEDRoute]{
		Routes: []algebras.MEDRoute{ma, mb, mc},
		Edges:  []core.Edge[algebras.MEDRoute]{med.Edge(1, 0, 1), med.Edge(2, 3, 1)},
	}))

	bad := gadgets.BadGadget()
	badAlg := gadgets.Algebra{S: bad}
	add("bad-gadget", checkMatrix[gadgets.Route](badAlg, core.Sample[gadgets.Route]{
		Routes: badAlg.SampleRoutes(),
		Edges:  badAlg.Adjacency().EdgeList(),
	}))

	// Print the matrix.
	tw := newTab(w)
	fmt.Fprintf(tw, "algebra\tproperty\tholds\tcases\n")
	for _, row := range res.Rows {
		fmt.Fprintf(tw, "%s\t%s\t%s\t%d\n", row.Algebra, row.Property, pass(row.Holds), row.Checked)
	}
	tw.Flush()
	return res
}

func policySample() []policy.Route {
	mk := func(lp uint32, comms policy.CommunitySet, ns ...int) policy.Route {
		return policy.Valid(lp, comms, pathFromNodes(ns...))
	}
	return []policy.Route{
		policy.TrivialRoute,
		policy.InvalidRoute,
		mk(0, 0, 1, 0),
		mk(1, policy.NewCommunitySet(1), 2, 0),
		mk(2, policy.NewCommunitySet(2, 3), 2, 1, 0),
		mk(5, 0, 3, 2, 0),
	}
}
