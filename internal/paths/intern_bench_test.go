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
	ring := topology.Ring(128)
	for i := 0; i < 128; i += 8 { // the chords of the engine_policy_n128 workload
		j := (i + 64) % 128
		ring.Arcs = append(ring.Arcs, paths.Arc{From: i, To: j}, paths.Arc{From: j, To: i})
	}
	for _, bc := range []struct {
		name string
		g    topology.Graph
	}{
		{"ring128+chords", ring},
		{"complete32", topology.Complete(32)},
	} {
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
