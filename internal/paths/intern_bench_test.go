package paths_test

import (
	"testing"

	"repro/internal/paths"
	"repro/internal/topology"
)

// BenchmarkExtendSel prices the columnar kernels' path step alone: every
// arc (i, j) of the graph extends row j's warm column — the shortest
// paths from j to every destination, interned along BFS trees so that
// routes share suffixes the way converged routing tables do — with one
// ExtendSel call. Every extension has been seen (loop verdicts
// included), so this is the steady state of a convergence run. The
// clique case gives every path the largest possible fan-out: an index
// whose per-path cost grows with the number of children shows there.
func BenchmarkExtendSel(b *testing.B) {
	for _, bc := range benchGraphs() {
		b.Run(bc.name, func(b *testing.B) {
			tab := paths.NewTable()
			cols := bfsColumns(tab, bc.g)
			out := make([]paths.PathID, bc.g.N)
			sweep := func() {
				for _, a := range bc.g.Arcs {
					tab.ExtendSel(cols[a.To], out, nil, a.From, a.To)
				}
			}
			sweep()
			b.ResetTimer()
			for k := 0; k < b.N; k++ {
				sweep()
			}
			cells := float64(b.N) * float64(len(bc.g.Arcs)*bc.g.N)
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/cells, "ns/cell")
		})
	}
}

// BenchmarkContains prices node membership alone, the table's answer to
// a path(v) condition: every node v is queried against every warm BFS
// path of the graph, through the locked Contains the policy kernels
// call. Ring-128 plus chords has paths through nodes past 63; the
// clique's paths are short and all below 64.
func BenchmarkContains(b *testing.B) {
	for _, bc := range benchGraphs() {
		b.Run(bc.name, func(b *testing.B) {
			tab := paths.NewTable()
			cols := bfsColumns(tab, bc.g)
			hits := 0
			b.ResetTimer()
			for k := 0; k < b.N; k++ {
				for _, col := range cols {
					for _, p := range col {
						for v := 0; v < bc.g.N; v++ {
							if tab.Contains(p, v) {
								hits++
							}
						}
					}
				}
			}
			if want := b.N * len(cols) * (len(cols) - 1); b.N > 0 && hits < want {
				b.Fatalf("%d hits, want at least %d (every non-empty path holds both ends)", hits, want)
			}
			queries := float64(b.N) * float64(bc.g.N*bc.g.N*bc.g.N)
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/queries, "ns/query")
		})
	}
}

// benchGraphs are the two graphs the table's benchmarks run on: the
// engine_policy_n128 topology (ring-128 plus a chord every eighth node)
// and the 32-clique, where every path has the largest possible fan-out.
func benchGraphs() []struct {
	name string
	g    topology.Graph
} {
	ring := topology.Ring(128)
	for i := 0; i < 128; i += 8 {
		j := (i + 64) % 128
		ring.Arcs = append(ring.Arcs, paths.Arc{From: i, To: j}, paths.Arc{From: j, To: i})
	}
	return []struct {
		name string
		g    topology.Graph
	}{
		{"ring128+chords", ring},
		{"complete32", topology.Complete(32)},
	}
}

// bfsColumns interns, for every destination d, the BFS-tree path from
// each node to d (ties to the lower-numbered neighbour) and returns the
// table's columns: cols[j][d] is the path from j to d.
func bfsColumns(tab *paths.Table, g topology.Graph) [][]paths.PathID {
	nbrs := make([][]int, g.N)
	for _, a := range g.Arcs {
		nbrs[a.To] = append(nbrs[a.To], a.From)
	}
	cols := make([][]paths.PathID, g.N)
	for j := range cols {
		cols[j] = make([]paths.PathID, g.N)
	}
	for d := 0; d < g.N; d++ {
		seen := make([]bool, g.N)
		seen[d] = true
		cols[d][d] = paths.EmptyID
		for queue := []int{d}; len(queue) > 0; queue = queue[1:] {
			v := queue[0]
			for _, u := range nbrs[v] {
				if !seen[u] {
					seen[u] = true
					cols[u][d] = tab.Extend(cols[v][d], u, v)
					queue = append(queue, u)
				}
			}
		}
	}
	return cols
}
