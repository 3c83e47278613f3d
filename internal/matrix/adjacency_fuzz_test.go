package matrix

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/algebras"
	"repro/internal/core"
)

// sameEdge reports whether two installed edge values are the same: equal
// comparable values, or the one incomparable install (every Fn the fuzzer
// installs carries its own label).
func sameEdge(a, b core.Edge[algebras.NatInf]) bool {
	if a == nil || b == nil {
		return a == nil && b == nil
	}
	if a.Label() != b.Label() || reflect.TypeOf(a) != reflect.TypeOf(b) {
		return false
	}
	if reflect.ValueOf(a).Comparable() {
		return a == b
	}
	return true
}

// FuzzAdjacency drives SetEdge, RemoveEdge, Touch and Clone against a
// dense []core.Edge model. After every operation the adjacency and every
// clone taken so far must hold exactly their model's edges (Edge, and
// Edges and EdgeList in row order), the generation must count the
// mutations and touches, and the value table must hold at most one entry
// per distinct comparable value plus one per Fn install. Each input ends
// with a link flapping between two comparable values, which must not grow
// the table.
func FuzzAdjacency(f *testing.F) {
	f.Add([]byte{0, 0, 1, 0, 0, 1, 0, 1, 1, 2, 3, 0, 4, 0, 0, 2, 0, 1})
	f.Add([]byte{1, 2, 3, 0, 4, 0, 0, 0, 1, 2, 0, 1, 2, 2, 3, 1})
	f.Add([]byte{0, 1, 2, 2, 0, 1, 2, 1, 0, 1, 2, 0, 3, 0, 0, 0})
	// Ten Fn installs: past scanVals the table keeps an index, which the
	// comparable installs and the flap then go through.
	many := []byte{}
	for k := byte(0); k < 10; k++ {
		many = append(many, 1, k, k+1, k)
	}
	f.Add(append(many, 0, 0, 1, 0, 4, 0, 0, 0, 0, 0, 1, 1, 0, 2, 3, 2, 2, 0, 1, 0))
	f.Fuzz(func(t *testing.T, ops []byte) {
		const n = 5
		alg := algebras.ShortestPaths{}
		comparable := []core.Edge[algebras.NatInf]{alg.AddEdge(1), alg.AddEdge(2), alg.AddEdge(7)}
		type held struct {
			a     *Adjacency[algebras.NatInf]
			model []core.Edge[algebras.NatInf]
		}
		a := NewAdjacency[algebras.NatInf](n)
		model := make([]core.Edge[algebras.NatInf], n*n)
		var clones []held
		var gen uint64
		fns := 0
		check := func(label string) {
			for _, h := range append(clones, held{a, model}) {
				var wantEdges []core.Edge[algebras.NatInf]
				for i := 0; i < n; i++ {
					for j := 0; j < n; j++ {
						e, ok := h.a.Edge(i, j)
						want := h.model[i*n+j]
						if ok != (want != nil) || !sameEdge(e, want) {
							t.Fatalf("%s: edge (%d,%d) = %v, want %v", label, i, j, e, want)
						}
						if want != nil {
							wantEdges = append(wantEdges, want)
						}
					}
				}
				list, triples := h.a.EdgeList(), h.a.Edges()
				if len(list) != len(wantEdges) || len(triples) != len(wantEdges) {
					t.Fatalf("%s: EdgeList has %d and Edges %d edges, want %d", label, len(list), len(triples), len(wantEdges))
				}
				x := 0
				for i := 0; i < n; i++ {
					for j := 0; j < n; j++ {
						if h.model[i*n+j] == nil {
							continue
						}
						if tr := triples[x]; tr.I != i || tr.J != j || !sameEdge(tr.E, wantEdges[x]) || !sameEdge(list[x], wantEdges[x]) {
							t.Fatalf("%s: entry %d of Edges/EdgeList is (%d,%d) %v / %v, want (%d,%d) %v",
								label, x, tr.I, tr.J, tr.E, list[x], i, j, wantEdges[x])
						}
						x++
					}
				}
			}
			if a.Generation() != gen {
				t.Fatalf("%s: generation %d, want %d", label, a.Generation(), gen)
			}
			if len(a.vals) > len(comparable)+fns {
				t.Fatalf("%s: %d values in the table after %d Fn installs", label, len(a.vals), fns)
			}
		}
		for x := 0; x+3 < len(ops); x += 4 {
			op, i, j, v := ops[x]%5, int(ops[x+1])%n, int(ops[x+2])%n, int(ops[x+3])
			if i == j && op < 3 {
				j = (i + 1) % n
			}
			label := fmt.Sprintf("op %d (%d on %d→%d, %d)", x/4, op, i, j, v)
			switch op {
			case 0:
				e := comparable[v%len(comparable)]
				a.SetEdge(i, j, e)
				model[i*n+j] = e
				gen++
			case 1:
				fns++
				w := algebras.NatInf(v)
				e := core.Fn(fmt.Sprintf("fn#%d", fns), func(r algebras.NatInf) algebras.NatInf { return r.Add(w) })
				a.SetEdge(i, j, e)
				model[i*n+j] = e
				gen++
				if got, ok := a.Edge(i, j); !ok || got.Apply(3) != algebras.NatInf(3).Add(w) {
					t.Fatalf("%s: the installed Fn edge does not apply", label)
				}
			case 2:
				a.RemoveEdge(i, j)
				model[i*n+j] = nil
				gen++
			case 3:
				a.Touch()
				gen++
			case 4:
				clones = append(clones, held{a.Clone(), append([]core.Edge[algebras.NatInf](nil), model...)})
			}
			check(label)
		}
		// A flapping link: once both values are installed, flapping
		// between them adds nothing to the table.
		a.SetEdge(0, 1, comparable[0])
		a.SetEdge(0, 1, comparable[1])
		size := len(a.vals)
		for range 100 {
			a.SetEdge(0, 1, comparable[0])
			a.RemoveEdge(0, 1)
			a.SetEdge(0, 1, comparable[1])
		}
		if len(a.vals) != size {
			t.Fatalf("flapping one link grew the value table from %d to %d", size, len(a.vals))
		}
	})
}
