package scenario

import (
	"testing"
)

// fuzz clamps: keep each fuzz execution cheap enough for a tight budget
// while still covering every event kind and both instance families.
const (
	fuzzMaxHorizon = 300
	fuzzMaxNodes   = 12
	fuzzMaxEvents  = 12
)

// FuzzScenarioConvergence feeds scenario files through the engine
// substrate and checks the invariants that must hold for every
// well-formed timeline:
//
//   - the engine, under the schedule the daemon serves (β crossing event
//     steps, early termination, crash windows masked), is bit-identical
//     to the literal evaluator playing the same timeline, on every event
//     boundary and at the horizon;
//   - a RIP scenario classifies Converged — the algebra is finite and
//     strictly increasing, so by Theorem 7 it converges from any state,
//     on any topology the timeline leaves behind;
//   - a Wedged verdict carries a bisimulation certificate.
//
// The seeds are the known-bad gadget timelines: the wedgie flap, the
// BadGadget churn, count-to-infinity, and their converging controls.
func FuzzScenarioConvergence(f *testing.F) {
	f.Add([]byte(`scenario wedgie-flap
gadget wedgie
start stable 0
seed 7
horizon 120
at 30 linkdown 3 0
at 60 linkup 3 0
`))
	f.Add([]byte(`scenario badgadget-churn
gadget badgadget
seed 11
horizon 120
at 40 restart 2
`))
	f.Add([]byte(`scenario countinfinity
topo line 3 shortest
seed 3
horizon 160
at 40 linkdown 1 2
`))
	f.Add([]byte(`scenario rip-churn
topo ring 6 rip
seed 9
horizon 160
loss 0.2
dup 0.1
at 30 linkdown 0 1
at 60 weight 3 2 3
at 90 restart 4
`))
	f.Add([]byte(`scenario disagree-restart
gadget disagree
seed 5
horizon 100
at 25 restart 1
at 50 restart 2
`))
	f.Add([]byte(`scenario rip-crash-window
topo ring 6 rip
seed 13
horizon 200
loss 0.1
at 30 crash 2
at 80 recover 2
at 110 linkdown 0 1
`))

	f.Fuzz(func(t *testing.T, data []byte) {
		sc, err := Parse(data)
		if err != nil {
			t.Skip()
		}
		if sc.Horizon > fuzzMaxHorizon || sc.Nodes() > fuzzMaxNodes || len(sc.Events) > fuzzMaxEvents {
			t.Skip()
		}
		rep, err := Run(sc, SubEngine)
		if err != nil {
			// Build-time rejections (unknown rank path, absent link,
			// stable index out of range) are fine inputs to discard.
			t.Skip()
		}
		sr := rep.Substrates[0]
		if !sr.ReferenceOK {
			t.Fatalf("engine diverged from the reference:\n%s\n%s", sc.Encode(), rep)
		}
		if sc.Spec.Algebra == "rip" && sr.Class.Verdict != VerdictConverged {
			t.Fatalf("RIP timeline did not converge (Theorem 7 violated):\n%s\n%s", sc.Encode(), rep)
		}
		if sr.Class.Verdict == VerdictWedged && !sr.Certified {
			t.Fatalf("uncertified wedge:\n%s\n%s", sc.Encode(), rep)
		}
	})
}
