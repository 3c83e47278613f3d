package policy

import (
	"testing"

	"repro/internal/core"
	"repro/internal/paths"
)

func benchRoute() Route {
	return Valid(3, NewCommunitySet(1, 4, 7), paths.FromNodes(5, 3, 2, 0))
}

func BenchmarkApplySimple(b *testing.B) {
	pol := IncrPrefBy(2)
	r := benchRoute()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = pol.Apply(r)
	}
}

func BenchmarkApplyConditional(b *testing.B) {
	pol := IfElse(And(InComm(4), Not(InPath(9))), Compose(AddComm(2), IncrPrefBy(1)), Reject())
	r := benchRoute()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = pol.Apply(r)
	}
}

func BenchmarkEdgeApply(b *testing.B) {
	alg := Algebra{}
	e := alg.Edge(6, 5, If(InComm(1), IncrPrefBy(1)))
	r := benchRoute()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = e.Apply(r)
	}
}

func BenchmarkChoice(b *testing.B) {
	alg := Algebra{}
	x := benchRoute()
	y := Valid(3, NewCommunitySet(2), paths.FromNodes(6, 3, 2, 0))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = alg.Choice(x, y)
	}
}

func BenchmarkParsePolicy(b *testing.B) {
	src := "addc(3); if (comm(3) & !path(2)) { lp+=10 } else { delc(1); reject }"
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ParsePolicy(src); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPolicyKernel prices one compiled policy edge per cell on a
// 128-destination column (the size of the ring-128+chords workload's
// rows), in ns/cell. cold: every call starts from an empty memo (the
// reset, 128 stores, is timed with it), so every valid source is
// extended and interpreted. warm: calls alternate between two columns
// that agree on about 64 % of their valid sources, so that share folds
// from the memo. Both reset the destination to ∞ first, as σ does.
func BenchmarkPolicyKernel(b *testing.B) {
	const n = 128
	for _, warm := range []bool{false, true} {
		name := "cold"
		if warm {
			name = "warm"
		}
		b.Run(name, func(b *testing.B) {
			_, kn, ca, cb := kernelColumns(n, 1)
			memo, dst := newPolicyMemo(n), newPolicyCol(n)
			var scratch core.ColScratch
			kn(dst, ca, nil, &scratch, &memo)
			kn(dst, cb, nil, &scratch, &memo)
			src := [2]core.Col{ca, cb}
			b.ResetTimer()
			for it := 0; it < b.N; it++ {
				if !warm {
					for x := range memo.ID {
						memo.ID[x] = paths.InvalidID
					}
				}
				resetCol(dst)
				kn(dst, src[it&1], nil, &scratch, &memo)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/cell")
		})
	}
}
