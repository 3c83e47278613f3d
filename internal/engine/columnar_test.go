package engine_test

import (
	"fmt"
	"testing"

	"repro/internal/algebras"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/gaorexford"
	"repro/internal/matrix"
	"repro/internal/pathalg"
	"repro/internal/policy"
)

// The columnar equivalence contract: the struct-of-arrays kernels are an
// alternative evaluation backend, not an alternative semantics. A run
// that packs must be indistinguishable — final cells bit for bit AND
// every work counter — from the same run on the generic interface path,
// which the engine takes for an algebra that does not pack. The dirty set
// is a pure function of the schedule, so Stats agreeing is part of the
// contract, not a coincidence.

// unpacked hides every optional capability of an algebra (a named field,
// not an embedding, so nothing is promoted): the engine sees a plain
// core.Algebra and evaluates it on the interface path.
type unpacked[R any] struct{ alg core.Algebra[R] }

func (u unpacked[R]) Choice(a, b R) R   { return u.alg.Choice(a, b) }
func (u unpacked[R]) Trivial() R        { return u.alg.Trivial() }
func (u unpacked[R]) Invalid() R        { return u.alg.Invalid() }
func (u unpacked[R]) Equal(a, b R) bool { return u.alg.Equal(a, b) }
func (u unpacked[R]) Format(r R) string { return u.alg.Format(r) }

// runColumnarToggle runs alg on adj under a lazy fair source on packed
// lanes and on the interface path, with and without column sharding, on
// fresh and warm engines, and requires identical states and stats.
func runColumnarToggle[R any](t *testing.T, name string, alg core.Algebra[R], adj *matrix.Adjacency[R], T int) {
	if c, ok := alg.(core.Columnar[R]); !ok || !c.ColumnarOK() {
		t.Fatalf("%s does not pack; the differential would compare the interface path with itself", name)
	}
	n := adj.N
	start := matrix.Identity[R](alg, n)
	src := engine.Hashed{N: n, T: T, Seed: 23, MaxGap: 6, MaxStaleness: 5}

	for _, cfg := range []struct {
		label string
		mk    func(core.Algebra[R], *matrix.Adjacency[R], engine.Config) *engine.Engine[R]
		conf  engine.Config
	}{
		{"default", engine.New[R], engine.Config{}},
		{"sharded", engine.NewSharded[R], engine.Config{Workers: 8}},
	} {
		engOff := cfg.mk(unpacked[R]{alg}, adj, cfg.conf)
		resOff := engOff.Run(start, src)
		engOn := cfg.mk(alg, adj, cfg.conf)
		// rep ≥ 1 reuses the pooled columnar slabs and selection scratch
		// of the first run, so stale-lane bugs cannot hide.
		for rep := 0; rep < 2; rep++ {
			res := engOn.Run(start, src)
			label := fmt.Sprintf("%s/%s rep %d", name, cfg.label, rep)
			identicalStates(t, label, res.Final(), resOff.Final())
			statsMatch(t, label, res.Stats(), resOff.Stats())
		}
		engOn.Close()
		engOff.Close()
	}
}

// TestColumnarToggleIsBitIdentical crosses every packable carrier family
// with the packed-versus-interface contract: the bare metric lane (hop count), the
// one-word lift with a path lane (interned path vector), the packed
// Gao–Rexford classes, and the two-word policy cells.
func TestColumnarToggleIsBitIdentical(t *testing.T) {
	t.Run("hopcount", func(t *testing.T) {
		alg, adj, _ := hopNet()
		runColumnarToggle(t, "hopcount", alg, adj, 300)
	})
	t.Run("interned-pv", func(t *testing.T) {
		alg, adj, _ := hopNet()
		net := liftBoth("interned-pv", alg, adj)
		runColumnarToggle[pathalg.IRoute[algebras.NatInf]](t, "interned-pv", net.in, net.adjI, 300)
	})
	t.Run("gaorexford", func(t *testing.T) {
		galg := gaorexford.Algebra{MaxHops: 12}
		_, adj, _ := grNet()
		in := galg.Interned(nil)
		runColumnarToggle[pathalg.IRoute[gaorexford.Route]](t, "gaorexford", in, gaorexford.LiftInterned(in, adj), 300)
	})
	t.Run("policy", func(t *testing.T) {
		pol, err := policy.ParsePolicy("addc(2); if (comm(2) & !path(3)) { lp+=7 } else { prepend(1) }")
		if err != nil {
			t.Fatal(err)
		}
		alg := policy.NewInterned(nil)
		adj := matrix.NewAdjacency[policy.IRoute](6)
		for i := 0; i < 6; i++ {
			for _, d := range []int{1, 2} {
				j := (i + d) % 6
				adj.SetEdge(i, j, alg.Edge(i, j, pol))
				adj.SetEdge(j, i, alg.Edge(j, i, pol))
			}
		}
		runColumnarToggle[policy.IRoute](t, "policy", alg, adj, 300)
	})
}
