package matrix

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/algebras"
	"repro/internal/core"
)

// lineNetwork builds the shortest-paths line 0 —1— 1 —1— 2 ... with unit
// weights.
func lineNetwork(n int) (algebras.ShortestPaths, *Adjacency[algebras.NatInf]) {
	alg := algebras.ShortestPaths{}
	adj := NewAdjacency[algebras.NatInf](n)
	for i := 0; i+1 < n; i++ {
		adj.SetEdge(i, i+1, alg.AddEdge(1))
		adj.SetEdge(i+1, i, alg.AddEdge(1))
	}
	return alg, adj
}

func TestIdentityMatrix(t *testing.T) {
	alg := algebras.ShortestPaths{}
	x := Identity[algebras.NatInf](alg, 3)
	x.Each(func(i, j int, r algebras.NatInf) {
		want := algebras.Inf
		if i == j {
			want = 0
		}
		if r != want {
			t.Errorf("I[%d][%d] = %v, want %v", i, j, r, want)
		}
	})
}

func TestSigmaLemma1(t *testing.T) {
	// Lemma 1: after an iteration, every node's route to itself is 0,
	// whatever garbage the starting state contains.
	alg, adj := lineNetwork(4)
	garbage := NewState[algebras.NatInf](4, 7)
	y := Sigma[algebras.NatInf](alg, adj, garbage)
	for i := 0; i < 4; i++ {
		if y.Get(i, i) != 0 {
			t.Errorf("σ(X)[%d][%d] = %v, want 0", i, i, y.Get(i, i))
		}
	}
}

func TestFixedPointShortestPathsLine(t *testing.T) {
	alg, adj := lineNetwork(5)
	x, rounds, ok := FixedPoint[algebras.NatInf](alg, adj, Identity[algebras.NatInf](alg, 5), 100)
	if !ok {
		t.Fatal("line network must converge")
	}
	// Distances on a unit line are |i-j|.
	x.Each(func(i, j int, r algebras.NatInf) {
		want := algebras.NatInf(abs(i - j))
		if r != want {
			t.Errorf("dist(%d,%d) = %v, want %v", i, j, r, want)
		}
	})
	// The classical O(n) bound for distributive algebras.
	if rounds > 5 {
		t.Errorf("line of 5 took %d rounds, expected ≤ 5", rounds)
	}
	if !IsStable[algebras.NatInf](alg, adj, x) {
		t.Error("fixed point not stable")
	}
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

func TestFixedPointUnreachable(t *testing.T) {
	// Two disconnected pairs: routes across the cut must be ∞.
	alg := algebras.ShortestPaths{}
	adj := NewAdjacency[algebras.NatInf](4)
	adj.SetEdge(0, 1, alg.AddEdge(1))
	adj.SetEdge(1, 0, alg.AddEdge(1))
	adj.SetEdge(2, 3, alg.AddEdge(1))
	adj.SetEdge(3, 2, alg.AddEdge(1))
	x, _, ok := FixedPoint[algebras.NatInf](alg, adj, Identity[algebras.NatInf](alg, 4), 50)
	if !ok {
		t.Fatal("must converge")
	}
	if x.Get(0, 2) != algebras.Inf || x.Get(3, 1) != algebras.Inf {
		t.Error("cross-cut routes must be ∞")
	}
	if x.Get(0, 1) != 1 || x.Get(2, 3) != 1 {
		t.Error("intra-pair routes must be 1")
	}
}

func TestWidestPathsFixedPoint(t *testing.T) {
	// 0 --cap 10-- 1 --cap 3-- 2 and a direct 0 --cap 2-- 2: widest route
	// 0→2 is min(10,3) = 3 via 1, not the direct 2.
	alg := algebras.WidestPaths{}
	adj := NewAdjacency[algebras.NatInf](3)
	set := func(i, j int, c algebras.NatInf) {
		adj.SetEdge(i, j, alg.CapEdge(c))
		adj.SetEdge(j, i, alg.CapEdge(c))
	}
	set(0, 1, 10)
	set(1, 2, 3)
	set(0, 2, 2)
	x, _, ok := FixedPoint[algebras.NatInf](alg, adj, Identity[algebras.NatInf](alg, 3), 50)
	if !ok {
		t.Fatal("must converge")
	}
	if got := x.Get(0, 2); got != 3 {
		t.Errorf("widest 0→2 = %v, want 3", got)
	}
}

func TestMostReliableFixedPoint(t *testing.T) {
	alg := algebras.MostReliable{}
	adj := NewAdjacency[float64](3)
	set := func(i, j int, p float64) {
		adj.SetEdge(i, j, alg.MulEdge(p))
		adj.SetEdge(j, i, alg.MulEdge(p))
	}
	set(0, 1, 0.5)
	set(1, 2, 0.5)
	set(0, 2, 0.125)
	x, _, ok := FixedPoint[float64](alg, adj, Identity[float64](alg, 3), 50)
	if !ok {
		t.Fatal("must converge")
	}
	if got := x.Get(0, 2); got != 0.25 {
		t.Errorf("reliability 0→2 = %v, want 0.25 (via node 1)", got)
	}
}

func TestOrbitEndsAtFixedPoint(t *testing.T) {
	alg, adj := lineNetwork(4)
	orbit := Orbit[algebras.NatInf](alg, adj, Identity[algebras.NatInf](alg, 4), 100)
	last, prev := orbit[len(orbit)-1], orbit[len(orbit)-2]
	if !last.Equal(alg, prev) {
		t.Error("orbit should end with a repeated fixed point")
	}
	for i := 0; i+2 < len(orbit); i++ {
		if orbit[i].Equal(alg, orbit[i+1]) {
			t.Error("orbit repeated before its end")
		}
	}
}

func TestStateRowsAndClone(t *testing.T) {
	alg := algebras.ShortestPaths{}
	x := Identity[algebras.NatInf](alg, 3)
	row := x.Row(1)
	row[0] = 42 // must not alias
	if x.Get(1, 0) == 42 {
		t.Error("Row must copy")
	}
	y := x.Clone()
	y.Set(0, 1, 9)
	if x.Get(0, 1) == 9 {
		t.Error("Clone must deep-copy")
	}
	if !x.Equal(alg, x.Clone()) {
		t.Error("clone must equal original")
	}
}

func TestSetRowValidates(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("SetRow with wrong length must panic")
		}
	}()
	x := NewState[algebras.NatInf](3, 0)
	x.SetRow(0, []algebras.NatInf{1, 2})
}

func TestSelfLoopRejected(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("self-loop edge must panic")
		}
	}()
	alg := algebras.ShortestPaths{}
	adj := NewAdjacency[algebras.NatInf](2)
	adj.SetEdge(1, 1, alg.AddEdge(1))
}

func TestAdjacencyEdgeList(t *testing.T) {
	_, adj := lineNetwork(3)
	if got := len(adj.EdgeList()); got != 4 {
		t.Errorf("EdgeList: %d edges, want 4", got)
	}
	if got := len(adj.Edges()); got != 4 {
		t.Errorf("Edges: %d, want 4", got)
	}
	adj.RemoveEdge(0, 1)
	if _, ok := adj.Edge(0, 1); ok {
		t.Error("edge not removed")
	}
	if _, ok := adj.Edge(1, 0); !ok {
		t.Error("reverse edge should remain")
	}
}

func TestAdjacencyCloneIndependent(t *testing.T) {
	alg, adj := lineNetwork(3)
	cl := adj.Clone()
	cl.RemoveEdge(0, 1)
	if _, ok := adj.Edge(0, 1); !ok {
		t.Error("clone removal affected the original")
	}
	_ = alg
}

func TestFormatContainsCells(t *testing.T) {
	alg, _ := lineNetwork(2)
	x := Identity[algebras.NatInf](alg, 2)
	s := x.Format(alg)
	if !strings.Contains(s, "0") || !strings.Contains(s, "∞") {
		t.Errorf("Format output missing cells:\n%s", s)
	}
}

// formatWithFmt is the fmt rendering Format must reproduce byte for
// byte: each cell through %-*s at its column's width in bytes, which fmt
// pads by runes.
func formatWithFmt[R any](x *State[R], alg core.Algebra[R]) string {
	cols := make([]int, x.N)
	for i := 0; i < x.N; i++ {
		for j := 0; j < x.N; j++ {
			cols[j] = max(cols[j], len(alg.Format(x.Get(i, j))))
		}
	}
	var b strings.Builder
	for i := 0; i < x.N; i++ {
		for j := 0; j < x.N; j++ {
			fmt.Fprintf(&b, "%-*s ", cols[j], alg.Format(x.Get(i, j)))
		}
		b.WriteString("\n")
	}
	return b.String()
}

// TestFormatMatchesFmt: Format writes what the fmt rendering writes —
// ∞ (3 bytes, 1 rune) beside 0 and multi-digit cells, in columns that
// hold ∞ and in columns that do not — for NatInf cells, whose String
// does not go through fmt either, and for cells formatted by fmt.
func TestFormatMatchesFmt(t *testing.T) {
	alg := algebras.ShortestPaths{}
	x := Identity[algebras.NatInf](alg, 4)
	x.Set(0, 1, 12345)
	x.Set(1, 0, 7)
	x.Set(2, 3, 40)
	x.Set(3, 2, 1<<40)
	for j := 0; j < 4; j++ {
		x.Set(3, j, algebras.NatInf(j*99))
	}
	if got, want := x.Format(alg), formatWithFmt(x, alg); got != want {
		t.Fatalf("Format:\n%q\nfmt:\n%q", got, want)
	}
	for _, v := range []algebras.NatInf{0, 7, 12345, 1 << 40} {
		if got, want := v.String(), fmt.Sprintf("%d", int64(v)); got != want {
			t.Fatalf("NatInf(%d).String() = %q, want %q", int64(v), got, want)
		}
	}
	if got := algebras.Inf.String(); got != "∞" {
		t.Fatalf("Inf.String() = %q, want ∞", got)
	}
	rel := algebras.MostReliable{}
	y := NewState(3, rel.Invalid())
	y.Set(0, 1, 0.5)
	y.Set(1, 2, 1)
	y.Set(2, 0, 0.123456789)
	if got, want := y.Format(rel), formatWithFmt(y, rel); got != want {
		t.Fatalf("Format:\n%q\nfmt:\n%q", got, want)
	}
}

func TestSigmaMonotoneFromIdentity(t *testing.T) {
	// From the clean state, σ only ever improves or keeps routes for
	// distributive algebras — sanity-check on a random graph.
	alg := algebras.ShortestPaths{}
	rng := rand.New(rand.NewSource(3))
	n := 8
	adj := NewAdjacency[algebras.NatInf](n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i != j && rng.Float64() < 0.4 {
				adj.SetEdge(i, j, alg.AddEdge(algebras.NatInf(1+rng.Intn(4))))
			}
		}
	}
	x := Identity[algebras.NatInf](alg, n)
	for it := 0; it < n+1; it++ {
		y := Sigma[algebras.NatInf](alg, adj, x)
		y.Each(func(i, j int, r algebras.NatInf) {
			if !core.Leq[algebras.NatInf](alg, r, x.Get(i, j)) {
				t.Fatalf("σ worsened route %d→%d from %v to %v starting clean", i, j, x.Get(i, j), r)
			}
		})
		x = y
	}
}

func TestRandomStateFrom(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	universe := []algebras.NatInf{0, 1, 2, algebras.Inf}
	x := RandomStateFrom(rng, 5, universe)
	x.Each(func(i, j int, r algebras.NatInf) {
		found := false
		for _, u := range universe {
			if u == r {
				found = true
			}
		}
		if !found {
			t.Errorf("cell (%d,%d) = %v not drawn from universe", i, j, r)
		}
	})
}
