package expr

import (
	"fmt"
	"io"
	"math/rand"

	"repro/internal/algebras"
	"repro/internal/bisim"
	"repro/internal/core"
	"repro/internal/matrix"
	"repro/internal/simulate"
)

// BisimulationResult is experiment E13 (Section 8.4).
type BisimulationResult struct {
	Commutes            bool
	RealStrictlyIncr    bool
	ShadowStrictlyIncr  bool
	LimitsAgree         bool
	BrokenMappingCaught bool
	Checked             int
}

// OK reports overall success.
func (r BisimulationResult) OK() bool {
	return r.Commutes && r.RealStrictlyIncr && r.ShadowStrictlyIncr &&
		r.LimitsAgree && r.BrokenMappingCaught
}

// Bisimulation is experiment E13 (Section 8.4): the hierarchical-path
// construction. The shadow protocol keeps router-level trajectories that
// policy never reads; forgetting them is a bisimulation onto the AS-level
// protocol, so convergence transfers. A deliberately corrupted mapping is
// shown to be rejected, demonstrating the check has teeth.
func Bisimulation(w io.Writer, states int) BisimulationResult {
	section(w, "E13 (§8.4)", "bisimulation: AS-level BGP vs router-level shadow")
	g, asOf := bisim.TwoTierASes()
	p := bisim.HierarchicalInstance(g, asOf, 15)
	rng := rand.New(rand.NewSource(1301))
	var res BisimulationResult

	gen := func(rng *rand.Rand, _, _ int) bisim.ShadowRoute {
		if rng.Intn(6) == 0 {
			return p.AlgA.Invalid()
		}
		r := bisim.ShadowRoute{}
		r.Dist = algebras.NatInf(rng.Intn(16))
		perm := rng.Perm(3)
		r.ASPath = append(r.ASPath, perm[:1+rng.Intn(3)]...)
		for k := rng.Intn(4); k > 0; k-- {
			r.Routers = append(r.Routers, rng.Intn(6))
		}
		return r
	}
	var routes []bisim.ShadowRoute
	for i := 0; i < 30; i++ {
		routes = append(routes, gen(rng, 0, 0))
	}

	rep := bisim.Check[bisim.ShadowRoute, bisim.BGPRoute](p, routes, gen, rng, states, 8)
	res.Commutes = rep.OK()
	res.Checked = rep.Checked

	sA := core.Sample[bisim.ShadowRoute]{Routes: routes, Edges: p.AdjA.EdgeList()}
	res.ShadowStrictlyIncr = core.Check[bisim.ShadowRoute](p.AlgA, core.StrictlyIncreasing, sA).Holds
	var bRoutes []bisim.BGPRoute
	for _, r := range routes {
		bRoutes = append(bRoutes, bisim.Forget(r))
	}
	sB := core.Sample[bisim.BGPRoute]{Routes: bRoutes, Edges: p.AdjB.EdgeList()}
	res.RealStrictlyIncr = core.Check[bisim.BGPRoute](p.AlgB, core.StrictlyIncreasing, sB).Holds

	fixA, _, okA := matrix.FixedPoint[bisim.ShadowRoute](p.AlgA, p.AdjA, matrix.Identity[bisim.ShadowRoute](p.AlgA, 6), 200)
	fixB, _, okB := matrix.FixedPoint[bisim.BGPRoute](p.AlgB, p.AdjB, matrix.Identity[bisim.BGPRoute](p.AlgB, 6), 200)
	res.LimitsAgree = okA && okB && p.MapState(fixA).Equal(p.AlgB, fixB)

	// Negative control.
	broken := p
	broken.H = func(r bisim.ShadowRoute) bisim.BGPRoute {
		out := bisim.Forget(r)
		if !out.Invalid && out.Dist > 0 {
			out.Dist--
		}
		return out
	}
	res.BrokenMappingCaught = !bisim.Check[bisim.ShadowRoute, bisim.BGPRoute](broken, nil, gen, rng, 10, 4).OK()

	tw := newTab(w)
	fmt.Fprintf(tw, "check\tresult\n")
	fmt.Fprintf(tw, "h∘σ_shadow = σ_bgp∘h (%d cases)\t%s\n", res.Checked, pass(res.Commutes))
	fmt.Fprintf(tw, "shadow algebra strictly increasing\t%s\n", pass(res.ShadowStrictlyIncr))
	fmt.Fprintf(tw, "AS-level algebra strictly increasing\t%s\n", pass(res.RealStrictlyIncr))
	fmt.Fprintf(tw, "h(fix σ_shadow) = fix σ_bgp\t%s\n", pass(res.LimitsAgree))
	fmt.Fprintf(tw, "corrupted mapping rejected (control)\t%s\n", pass(res.BrokenMappingCaught))
	tw.Flush()
	return res
}

// DynamicResult is experiment E14 (Section 3.2).
type DynamicResult struct {
	FlapRecovered      bool
	PartitionRecovered bool
	Epochs             int
	AllEpochsConverged bool
}

// OK reports overall success.
func (r DynamicResult) OK() bool {
	return r.FlapRecovered && r.PartitionRecovered && r.AllEpochsConverged
}

// Dynamic is experiment E14 (Section 3.2): the network keeps changing —
// links fail and recover mid-run, leaving stale routes behind — and after
// each sufficiently long quiet period the protocol has re-converged to
// the fixed point of the *current* topology.
func Dynamic(w io.Writer, epochs int) DynamicResult {
	section(w, "E14 (§3.2)", "dynamic topologies: flaps, partitions, epochs")
	alg, adj := ripRing()
	var res DynamicResult

	// One run with a link flap inside it.
	want, _, _ := matrix.FixedPoint[algebras.NatInf](alg, adj, matrix.Identity[algebras.NatInf](alg, 4), 100)
	mutateAt := func(t int64, f func(*matrix.Adjacency[algebras.NatInf])) simulate.Event[algebras.NatInf] {
		return simulate.Event[algebras.NatInf]{Time: t, Apply: func(s *simulate.Sim[algebras.NatInf]) { s.Mutate(f) }}
	}
	out := simulate.Run[algebras.NatInf](alg, adj, matrix.Identity[algebras.NatInf](alg, 4), simulate.Config{
		Seed: 1401, LossProb: 0.15, MaxTime: 500_000,
	}, nil,
		mutateAt(150, func(a *matrix.Adjacency[algebras.NatInf]) {
			a.RemoveEdge(1, 2)
			a.RemoveEdge(2, 1)
		}),
		mutateAt(400, func(a *matrix.Adjacency[algebras.NatInf]) {
			a.SetEdge(1, 2, alg.AddEdge(1))
			a.SetEdge(2, 1, alg.AddEdge(1))
		}),
	)
	res.FlapRecovered = out.Converged && out.Final.Equal(alg, want)

	// A permanent partition.
	cut := adj.Clone()
	cut.RemoveEdge(2, 3)
	cut.RemoveEdge(3, 2)
	cut.RemoveEdge(3, 0)
	cut.RemoveEdge(0, 3)
	wantCut, _, _ := matrix.FixedPoint[algebras.NatInf](alg, cut, matrix.Identity[algebras.NatInf](alg, 4), 100)
	out2 := simulate.Run[algebras.NatInf](alg, adj, matrix.Identity[algebras.NatInf](alg, 4), simulate.Config{
		Seed: 1402, MaxTime: 500_000,
	}, nil, mutateAt(120, func(a *matrix.Adjacency[algebras.NatInf]) {
		a.RemoveEdge(2, 3)
		a.RemoveEdge(3, 2)
		a.RemoveEdge(3, 0)
		a.RemoveEdge(0, 3)
	}))
	res.PartitionRecovered = out2.Converged && out2.Final.Equal(alg, wantCut) &&
		out2.Final.Get(0, 3) == algebras.Inf

	// Epoch chain: apply a random change per epoch, treating the final
	// state of each epoch as the start of the next (the paper's "new
	// instance of the problem" rule), converging synchronously each time.
	rng := rand.New(rand.NewSource(1403))
	cur := adj.Clone()
	state := matrix.Identity[algebras.NatInf](alg, 4)
	res.AllEpochsConverged = true
	for e := 0; e < epochs; e++ {
		res.Epochs++
		i, j := rng.Intn(4), rng.Intn(4)
		if i == j {
			continue
		}
		if _, ok := cur.Edge(i, j); ok && countEdges(cur) > 8 {
			cur.RemoveEdge(i, j)
			cur.RemoveEdge(j, i)
		} else {
			cur.SetEdge(i, j, alg.AddEdge(1))
			cur.SetEdge(j, i, alg.AddEdge(1))
		}
		wantE, _, okE := matrix.FixedPoint[algebras.NatInf](alg, cur, matrix.Identity[algebras.NatInf](alg, 4), 200)
		got, _, ok := matrix.FixedPoint[algebras.NatInf](alg, cur, state, 200)
		if !ok || !okE || !got.Equal(alg, wantE) {
			res.AllEpochsConverged = false
		}
		state = got
	}

	tw := newTab(w)
	fmt.Fprintf(tw, "scenario\tresult\n")
	fmt.Fprintf(tw, "link flap mid-run, re-converged to restored topology\t%s\n", pass(res.FlapRecovered))
	fmt.Fprintf(tw, "permanent partition, stale routes flushed to ∞\t%s\n", pass(res.PartitionRecovered))
	fmt.Fprintf(tw, "%d random change epochs, each re-converged from the prior state\t%s\n",
		res.Epochs, pass(res.AllEpochsConverged))
	tw.Flush()
	return res
}

func countEdges[R any](a *matrix.Adjacency[R]) int {
	return len(a.EdgeList())
}
