package engine_test

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/algebras"
	"repro/internal/async"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/gaorexford"
	"repro/internal/matrix"
	"repro/internal/pathalg"
	"repro/internal/schedule"
)

// The interning equivalence contract: evaluating over the hash-consed
// route carriers — with the engine's pooled scratch and packed kernels
// engaged — must be indistinguishable, cell for cell
// after materialising the path ids, from the literal clone-everything
// reference evaluator over the reference carriers, sequential and with
// every step fanned out.

// internNet packages one base algebra lifted both ways.
type internNet[B comparable] struct {
	name string
	tr   pathalg.Tracked[B]
	in   *pathalg.Interned[B]
	adjT *matrix.Adjacency[pathalg.Route[B]]
	adjI *matrix.Adjacency[pathalg.IRoute[B]]
}

func liftBoth[B comparable](name string, base core.Algebra[B], baseAdj *matrix.Adjacency[B]) internNet[B] {
	tr := pathalg.New[B](base)
	in := pathalg.NewInterned[B](base, nil)
	return internNet[B]{
		name: name,
		tr:   tr, in: in,
		adjT: pathalg.LiftAdjacency(tr, baseAdj),
		adjI: pathalg.LiftAdjacencyInterned(in, baseAdj),
	}
}

// runInternEquiv checks every configuration cross against the reference
// evaluator over the tracked carrier.
func runInternEquiv[B comparable](t *testing.T, net internNet[B]) {
	type RT = pathalg.Route[B]
	type RI = pathalg.IRoute[B]
	n := net.adjT.N
	rng := rand.New(rand.NewSource(3))
	startT := matrix.Identity[RT](net.tr, n)
	startI := matrix.Identity[RI](net.in, n)

	for trial := 0; trial < 4; trial++ {
		sched := schedule.Random(rng, n, 90, schedule.Options{MaxGap: 6, MaxStaleness: 5})
		ref := async.RunReference[RT](net.tr, net.adjT, startT, sched)
		want := ref[len(ref)-1]

		for _, cfg := range []struct {
			label string
			mk    func(core.Algebra[RI], *matrix.Adjacency[RI], engine.Config) *engine.Engine[RI]
			conf  engine.Config
		}{
			{"interned", engine.New[RI], engine.Config{}},
			{"interned-sharded", engine.NewSharded[RI], engine.Config{Workers: 8}},
		} {
			eng := cfg.mk(net.in, net.adjI, cfg.conf)
			// Two runs on one engine: the second consumes the pooled
			// scratch of the first, so reuse bugs cannot hide.
			for rep := 0; rep < 2; rep++ {
				res := eng.Run(startI, sched)
				final := res.Final()
				for i := 0; i < n; i++ {
					for j := 0; j < n; j++ {
						got := net.in.ToTracked(final.Get(i, j))
						if !net.tr.Equal(got, want.Get(i, j)) {
							t.Fatalf("%s/%s trial %d rep %d cell (%d,%d): interned %s, reference %s",
								net.name, cfg.label, trial, rep, i, j,
								net.tr.Format(got), net.tr.Format(want.Get(i, j)))
						}
					}
				}
			}
			eng.Close()
		}
	}
}

// TestInternedEngineEquivalence crosses the three algebra families with
// every engine configuration.
func TestInternedEngineEquivalence(t *testing.T) {
	t.Run("hopcount", func(t *testing.T) {
		alg, adj, _ := hopNet()
		runInternEquiv(t, liftBoth("hopcount", alg, adj))
	})
	t.Run("lex", func(t *testing.T) {
		alg, adj, _ := lexNet()
		runInternEquiv(t, liftBoth("lex", alg, adj))
	})
	t.Run("gaorexford", func(t *testing.T) {
		galg := gaorexford.Algebra{MaxHops: 12}
		_, adj, _ := grNet()
		in := galg.Interned(nil)
		net := internNet[gaorexford.Route]{
			name: "gaorexford",
			tr:   pathalg.New[gaorexford.Route](galg),
			in:   in,
			adjT: pathalg.LiftAdjacency(pathalg.New[gaorexford.Route](galg), adj),
			adjI: gaorexford.LiftInterned(in, adj),
		}
		runInternEquiv(t, net)
	})
}

// TestInternToggleIsBitIdentical runs the interned carrier under a lazy
// fair source on fresh and warm engines, against the same algebra with
// its packing capability hidden, and requires identical final states,
// identical work counters and the same certified convergence time.
func TestInternToggleIsBitIdentical(t *testing.T) {
	alg, baseAdj, _ := hopNet()
	net := liftBoth("hopcount", alg, baseAdj)
	type RI = pathalg.IRoute[algebras.NatInf]
	n := net.adjI.N
	start := matrix.Identity[RI](net.in, n)
	src := engine.Hashed{N: n, T: 400, Seed: 11, MaxGap: 6, MaxStaleness: 5}

	on := engine.New[RI](net.in, net.adjI, engine.Config{})
	defer on.Close()
	off := engine.New[RI](unpacked[RI]{net.in}, net.adjI, engine.Config{})
	defer off.Close()

	resOff := off.Run(start, src)
	var prev *engine.Result[RI]
	for rep := 0; rep < 3; rep++ { // rep ≥ 1 reuses pooled scratch
		res := on.Run(start, src)
		identicalStates(t, fmt.Sprintf("interning capabilities on vs hidden (rep %d)", rep), res.Final(), resOff.Final())
		statsMatch(t, "interning capabilities on vs hidden", res.Stats(), resOff.Stats())
		if prev != nil {
			statsMatch(t, "warm vs cold", res.Stats(), prev.Stats())
		}
		prev = res
	}
	if _, ok := prev.Converged(); !ok {
		t.Fatal("fair hashed run should certify convergence on this horizon")
	}
}
