package scenario

import (
	"testing"
)

// acceptanceScenario is the PR's acceptance timeline: a link failure, a
// node restart, a live policy edit and a link recovery — four mid-run
// events from one scenario spec, played on all three substrates. The
// rank edit demotes node 3's peer path from rank 2 to rank 3, which
// leaves every stable state intact, so all substrates must settle — in
// the wedged state, because the run starts from the engineered one and
// flaps the primary link.
const acceptanceScenario = `scenario wedgie-full-churn
gadget wedgie
start stable 0
seed 5
horizon 140
at 30 linkdown 3 0
at 55 restart 2
at 70 rank 3 3 2 1 0
at 85 linkup 3 0
`

// TestScenarioAllSubstrates runs the acceptance timeline everywhere:
// the stepped engine (bit-identical to the literal reference at every
// event and at the horizon), the event simulator and the live network. Every substrate
// must quiesce on a σ-stable state and the watchdog must call the
// outcome wedged, certified by the bisimulation check.
func TestScenarioAllSubstrates(t *testing.T) {
	sc, err := Parse([]byte(acceptanceScenario))
	if err != nil {
		t.Fatal(err)
	}
	if len(sc.Events) < 3 {
		t.Fatalf("acceptance scenario needs ≥ 3 events, has %d", len(sc.Events))
	}
	rep, err := Run(sc, SubEngine, SubSim, SubDist)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Substrates) != 3 {
		t.Fatalf("expected 3 substrate reports, got %d", len(rep.Substrates))
	}
	for _, sr := range rep.Substrates {
		if sr.Substrate == SubEngine && !sr.ReferenceOK {
			t.Errorf("engine diverged from the reference\n%s", rep)
		}
		if sr.Substrate != SubEngine && !sr.Converged {
			t.Errorf("%s did not quiesce\n%s", sr.Substrate, rep)
		}
		if !sr.Stable {
			t.Errorf("%s final state is not σ-stable\n%s", sr.Substrate, rep)
		}
		if sr.Class.Verdict != VerdictWedged {
			t.Errorf("%s verdict = %s, want wedged\n%s", sr.Substrate, sr.Class.Verdict, rep)
		}
		if sr.Class.Verdict == VerdictWedged && !sr.Certified {
			t.Errorf("%s wedge not certified\n%s", sr.Substrate, rep)
		}
	}
	// One timeline, three substrates, one wedged state: the simulator
	// and live network must land on the very state the engine (and its
	// reference) computed.
	eng, sim, dst := rep.Substrates[0], rep.Substrates[1], rep.Substrates[2]
	if eng.FinalTable != sim.FinalTable || eng.FinalTable != dst.FinalTable {
		t.Errorf("substrates settled on different states:\nengine:\n%s\nsim:\n%s\ndist:\n%s",
			eng.FinalTable, sim.FinalTable, dst.FinalTable)
	}
}

// TestScenarioTopoAcrossSubstrates: the same cross-substrate agreement
// for the topo family — RIP on a ring with a failure, a weight edit and
// a restart must converge everywhere (Theorem 7) onto one fixed point.
func TestScenarioTopoAcrossSubstrates(t *testing.T) {
	sc, err := Parse([]byte(`scenario rip-churn
topo ring 6 rip
seed 9
horizon 160
at 30 linkdown 0 1
at 60 weight 3 2 3
at 90 restart 4
`))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Run(sc, SubEngine, SubSim, SubDist)
	if err != nil {
		t.Fatal(err)
	}
	for _, sr := range rep.Substrates {
		if sr.Substrate == SubEngine && !sr.ReferenceOK {
			t.Errorf("engine diverged from the reference\n%s", rep)
		}
		if sr.Class.Verdict != VerdictConverged || !sr.Stable {
			t.Errorf("%s: verdict=%s stable=%v, want converged+stable\n%s",
				sr.Substrate, sr.Class.Verdict, sr.Stable, rep)
		}
	}
	eng, sim, dst := rep.Substrates[0], rep.Substrates[1], rep.Substrates[2]
	if eng.FinalTable != sim.FinalTable || eng.FinalTable != dst.FinalTable {
		t.Errorf("substrates settled on different fixed points:\nengine:\n%s\nsim:\n%s\ndist:\n%s",
			eng.FinalTable, sim.FinalTable, dst.FinalTable)
	}
}

// TestScenarioCrashRecoverAcrossSubstrates plays a crash/recover window
// (plus a link failure while the node is down) on all three substrates.
// RIP must converge everywhere (Theorem 7 — the recovered node's wiped
// state is just another arbitrary starting state), the engine must stay bit-identical to the reference
// under the masked schedule, and all substrates must land on one fixed
// point.
func TestScenarioCrashRecoverAcrossSubstrates(t *testing.T) {
	sc, err := Parse([]byte(`scenario rip-crash-recover
topo ring 6 rip
seed 13
horizon 200
at 30 crash 2
at 50 linkdown 4 5
at 80 recover 2
at 110 linkup 4 5
`))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Run(sc, SubEngine, SubSim, SubDist)
	if err != nil {
		t.Fatal(err)
	}
	for _, sr := range rep.Substrates {
		if sr.Substrate == SubEngine && !sr.ReferenceOK {
			t.Errorf("engine diverged from the reference under a crash window\n%s", rep)
		}
		if sr.Substrate != SubEngine && !sr.Converged {
			t.Errorf("%s did not quiesce after crash/recover\n%s", sr.Substrate, rep)
		}
		if sr.Class.Verdict != VerdictConverged || !sr.Stable {
			t.Errorf("%s: verdict=%s stable=%v, want converged+stable\n%s",
				sr.Substrate, sr.Class.Verdict, sr.Stable, rep)
		}
	}
	eng, sim, dst := rep.Substrates[0], rep.Substrates[1], rep.Substrates[2]
	if eng.FinalTable != sim.FinalTable || eng.FinalTable != dst.FinalTable {
		t.Errorf("substrates settled on different fixed points:\nengine:\n%s\nsim:\n%s\ndist:\n%s",
			eng.FinalTable, sim.FinalTable, dst.FinalTable)
	}
}

// TestScenarioCrashValidation pins the pairing rules: a crash without a
// recover, a double crash, a stray recover and a restart of a down node
// are all rejected at validation time.
func TestScenarioCrashValidation(t *testing.T) {
	bad := []string{
		"scenario x\ntopo ring 4 rip\nseed 1\nhorizon 50\nat 10 crash 1\n",
		"scenario x\ntopo ring 4 rip\nseed 1\nhorizon 50\nat 10 crash 1\nat 20 crash 1\nat 30 recover 1\n",
		"scenario x\ntopo ring 4 rip\nseed 1\nhorizon 50\nat 10 recover 1\n",
		"scenario x\ntopo ring 4 rip\nseed 1\nhorizon 50\nat 10 crash 1\nat 20 restart 1\nat 30 recover 1\n",
	}
	for i, src := range bad {
		if _, err := Parse([]byte(src)); err == nil {
			t.Errorf("case %d: invalid crash/recover timeline accepted", i)
		}
	}
	// The well-formed version round-trips through Encode.
	good := "scenario x\ntopo ring 4 rip\nseed 1\nhorizon 50\nat 10 crash 1\nat 30 recover 1\n"
	sc, err := Parse([]byte(good))
	if err != nil {
		t.Fatal(err)
	}
	sc2, err := Parse(sc.Encode())
	if err != nil {
		t.Fatalf("Encode output does not re-parse: %v", err)
	}
	if len(sc2.Events) != 2 || sc2.Events[0].Kind != NodeCrash || sc2.Events[1].Kind != NodeRecover {
		t.Fatalf("crash/recover lost in the Encode round trip: %+v", sc2.Events)
	}
}

// TestScenarioLongHorizon: the scenario's schedule is Fair, so the engine
// certifies the post-event fixed point and stops long before the horizon
// — and the state it stopped on must still be the literal evaluator's
// state at the horizon, 1 800 steps later: a stronger check of
// certification than grinding there.
func TestScenarioLongHorizon(t *testing.T) {
	sc, err := Parse([]byte("scenario quick\ntopo ring 8 rip\nseed 2\nhorizon 2000\nat 100 linkdown 0 1\n"))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Run(sc, SubEngine)
	if err != nil {
		t.Fatal(err)
	}
	sr := rep.Substrates[0]
	if !sr.Converged || sr.ConvergedAt < 100 || sr.Steps >= 200 {
		t.Fatalf("run did not stop early after the event at 100: converged=%v convergedAt=%d steps=%d of %d",
			sr.Converged, sr.ConvergedAt, sr.Steps, sc.Horizon)
	}
	if !sr.ReferenceOK || sr.Class.Verdict != VerdictConverged || !sr.Stable {
		t.Fatalf("post-event run: reference=%v verdict=%s stable=%v", sr.ReferenceOK, sr.Class.Verdict, sr.Stable)
	}
}
