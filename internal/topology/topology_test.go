package topology

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/algebras"
	"repro/internal/core"
	"repro/internal/matrix"
)

func arcCount(g Graph) int { return len(g.Arcs) }

func TestLine(t *testing.T) {
	g := Line(5)
	if g.N != 5 || arcCount(g) != 8 {
		t.Errorf("Line(5): N=%d arcs=%d, want 5, 8", g.N, arcCount(g))
	}
}

func TestRing(t *testing.T) {
	g := Ring(5)
	if arcCount(g) != 10 {
		t.Errorf("Ring(5): arcs=%d, want 10", arcCount(g))
	}
	if got := arcCount(Ring(2)); got != 2 {
		t.Errorf("Ring(2) should degenerate to one link, got %d arcs", got)
	}
}

func TestComplete(t *testing.T) {
	g := Complete(4)
	if arcCount(g) != 12 {
		t.Errorf("K4: arcs=%d, want 12", arcCount(g))
	}
}

func TestStar(t *testing.T) {
	g := Star(5)
	if arcCount(g) != 8 {
		t.Errorf("Star(5): arcs=%d, want 8", arcCount(g))
	}
}

func TestGrid(t *testing.T) {
	g := Grid(3, 2)
	// 3×2 lattice: horizontal 2 per row × 2 rows, vertical 3 → 7 links.
	if g.N != 6 || arcCount(g) != 14 {
		t.Errorf("Grid(3,2): N=%d arcs=%d, want 6, 14", g.N, arcCount(g))
	}
}

func TestErdosRenyiConnected(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 10; trial++ {
		g := ErdosRenyi(rng, 12, 0.1)
		// Verify connectivity by shortest-path reachability.
		alg := algebras.ShortestPaths{}
		adj := BuildUniform[algebras.NatInf](g, alg.AddEdge(1))
		x, _, ok := matrix.FixedPoint[algebras.NatInf](alg, adj, matrix.Identity[algebras.NatInf](alg, g.N), 100)
		if !ok {
			t.Fatal("must converge")
		}
		x.Each(func(i, j int, r algebras.NatInf) {
			if r.IsInf() {
				t.Fatalf("trial %d: %d cannot reach %d — graph disconnected", trial, i, j)
			}
		})
	}
}

func TestFatTreeStructure(t *testing.T) {
	g, roles := FatTree(4)
	// k=4: 4 core + 4 pods × (2 agg + 2 edge) = 20 switches.
	if g.N != 20 {
		t.Fatalf("FatTree(4): N=%d, want 20", g.N)
	}
	var core, agg, edge int
	for _, r := range roles {
		switch r {
		case CoreSwitch:
			core++
		case AggSwitch:
			agg++
		case EdgeSwitch:
			edge++
		}
	}
	if core != 4 || agg != 8 || edge != 8 {
		t.Errorf("roles: core=%d agg=%d edge=%d, want 4, 8, 8", core, agg, edge)
	}
	// Links: each agg connects to k/2 cores (8×2=16) and each edge to k/2
	// aggs (8×2=16): 32 links = 64 arcs.
	if arcCount(g) != 64 {
		t.Errorf("FatTree(4): arcs=%d, want 64", arcCount(g))
	}
	// All-pairs reachability.
	alg := algebras.ShortestPaths{}
	adj := BuildUniform[algebras.NatInf](g, alg.AddEdge(1))
	x, _, ok := matrix.FixedPoint[algebras.NatInf](alg, adj, matrix.Identity[algebras.NatInf](alg, g.N), 100)
	if !ok {
		t.Fatal("fat tree must converge")
	}
	x.Each(func(i, j int, r algebras.NatInf) {
		if r.IsInf() {
			t.Fatalf("%d cannot reach %d in the fat tree", i, j)
		}
	})
	// Edge-to-edge in different pods is 4 hops (edge-agg-core-agg-edge).
	if got := x.Get(6, 19); got != 4 {
		t.Errorf("cross-pod edge-to-edge distance = %v, want 4", got)
	}
}

func TestFatTreeRejectsOddK(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("FatTree(3) must panic")
		}
	}()
	FatTree(3)
}

// TestNamed: each name builds what its constructor builds, random draws
// from the seed, and a bad name or fat-tree k is an error, not a panic.
func TestNamed(t *testing.T) {
	fat, _ := FatTree(4)
	for _, tc := range []struct {
		name string
		n    int
		want Graph
	}{
		{"line", 5, Line(5)},
		{"ring", 5, Ring(5)},
		{"grid", 5, Grid(3, 3)},
		{"grid", 4, Grid(2, 2)},
		{"clique", 5, Complete(5)},
		{"star", 5, Star(5)},
		{"random", 9, ErdosRenyi(rand.New(rand.NewSource(7)), 9, 0.3)},
		{"fattree", 4, fat},
	} {
		got, err := Named(tc.name, tc.n, 7)
		if err != nil || !reflect.DeepEqual(got, tc.want) {
			t.Errorf("Named(%q, %d): err %v, graph differs from its constructor's", tc.name, tc.n, err)
		}
	}
	for _, bad := range []struct {
		name string
		n    int
	}{{"nosuch", 5}, {"fattree", 3}, {"fattree", 0}} {
		if _, err := Named(bad.name, bad.n, 1); err == nil {
			t.Errorf("Named(%q, %d) accepted", bad.name, bad.n)
		}
	}
}

func TestBuildWeightsByArc(t *testing.T) {
	alg := algebras.ShortestPaths{}
	g := Line(3)
	adj := Build[algebras.NatInf](g, func(i, j int) core.Edge[algebras.NatInf] {
		return alg.AddEdge(algebras.NatInf(i + j))
	})
	if e, ok := adj.Edge(0, 1); !ok || e.Label() != "+1" {
		t.Error("per-arc weight not applied")
	}
	if e, ok := adj.Edge(1, 2); !ok || e.Label() != "+3" {
		t.Error("per-arc weight not applied")
	}
}
