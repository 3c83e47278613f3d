package scenario

import (
	"os"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
)

// The service-path contract: a Runner advanced in quanta — in one
// process or checkpointed to bytes and resumed in a rebuilt one — must
// finish with exactly the final table and work counters of the run that
// was never paused. FinalHash folds the codec-encoded cells and the
// resume-invariant counters, so hash equality IS the bit-identity
// assertion.

const topoRunnerScenario = `scenario flap
topo ring 8 rip
seed 5
horizon 600
at 40 linkdown 0 1
at 120 linkup 0 1
at 200 weight 3 2 3
at 320 linkdown 4 5
at 420 linkup 4 5
at 500 restart 2
`

const gadgetRunnerScenario = `scenario wedge
gadget wedgie
seed 3
horizon 400
at 50 linkdown 3 0
at 150 linkup 3 0
at 250 rank 3 3 2 1 0
at 330 restart 1
`

// uninterrupted runs the scenario to completion in a single quantum and
// returns its fingerprint, table and step count.
func uninterrupted(t *testing.T, text string) (uint64, string, int) {
	t.Helper()
	sc, err := Parse([]byte(text))
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewRunner(sc)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	done, err := r.Advance(sc.Horizon + 1)
	if err != nil {
		t.Fatal(err)
	}
	if !done {
		t.Fatal("one full-horizon quantum did not finish the run")
	}
	return r.FinalHash(), r.FinalTable(), r.Stats().Steps
}

func TestRunnerSlicedDifferential(t *testing.T) {
	for _, tc := range []struct {
		name, text string
	}{
		{"topo-rip", topoRunnerScenario},
		{"gadget-wedgie", gadgetRunnerScenario},
	} {
		t.Run(tc.name, func(t *testing.T) {
			wantHash, wantTable, wantSteps := uninterrupted(t, tc.text)
			if wantHash == 0 || wantTable == "" {
				t.Fatal("uninterrupted run produced no fingerprint")
			}

			for _, quantum := range []int{13, 37, 111} {
				// In-process preemption: one runner, advanced in quanta.
				sc, err := Parse([]byte(tc.text))
				if err != nil {
					t.Fatal(err)
				}
				r, err := NewRunner(sc)
				if err != nil {
					t.Fatal(err)
				}
				slices := 0
				var liveCells []int // Stats().CellsComputed after every quantum
				for done := false; !done; slices++ {
					if done, err = r.Advance(quantum); err != nil {
						t.Fatalf("quantum=%d slice %d: %v", quantum, slices, err)
					}
					if slices > sc.Horizon {
						t.Fatalf("quantum=%d: run never finished", quantum)
					}
					liveCells = append(liveCells, r.Stats().CellsComputed)
				}
				if slices < 2 {
					t.Fatalf("quantum=%d: run never sliced", quantum)
				}
				if got := r.FinalHash(); got != wantHash {
					t.Fatalf("quantum=%d: sliced hash %x, uninterrupted %x\nsliced table:\n%s\nwant:\n%s",
						quantum, got, wantHash, r.FinalTable(), wantTable)
				}
				if got := r.Stats().Steps; got != wantSteps {
					t.Fatalf("quantum=%d: sliced run took %d steps, uninterrupted %d", quantum, got, wantSteps)
				}
				r.Close()

				// Cross-process preemption: after every quantum the run is
				// checkpointed to bytes, the runner torn down, and a fresh one
				// rebuilt from the bytes alone — the drain/restart path.
				r, err = NewRunner(sc.Clone())
				if err != nil {
					t.Fatal(err)
				}
				hops := 0
				var hopCells []int
				for {
					done, err := r.Advance(quantum)
					if err != nil {
						t.Fatalf("quantum=%d hop %d: %v", quantum, hops, err)
					}
					hopCells = append(hopCells, r.Stats().CellsComputed)
					if done {
						break
					}
					data, err := r.Checkpoint()
					if err != nil {
						t.Fatalf("quantum=%d hop %d: checkpoint: %v", quantum, hops, err)
					}
					step := r.Step()
					r.Close()
					if r, err = ResumeRunner(data); err != nil {
						t.Fatalf("quantum=%d hop %d: resume: %v", quantum, hops, err)
					}
					if r.Step() != step {
						t.Fatalf("quantum=%d hop %d: resumed at step %d, checkpointed at %d", quantum, hops, r.Step(), step)
					}
					hops++
				}
				if hops < 1 {
					t.Fatalf("quantum=%d: run finished before a single checkpoint hop", quantum)
				}
				// The live stepper and the snapshot→resume chain do the same
				// work quantum by quantum, not merely in total.
				if !reflect.DeepEqual(liveCells, hopCells) {
					t.Fatalf("quantum=%d: per-quantum cells diverge:\nin-process  %v\ncheckpointed %v", quantum, liveCells, hopCells)
				}
				if got := r.FinalHash(); got != wantHash {
					t.Fatalf("quantum=%d: resumed hash %x, uninterrupted %x\nresumed table:\n%s\nwant:\n%s",
						quantum, got, wantHash, r.FinalTable(), wantTable)
				}
				if got := r.FinalTable(); got != wantTable {
					t.Fatalf("quantum=%d: resumed table diverges:\n%s\nwant:\n%s", quantum, got, wantTable)
				}
				r.Close()
			}
		})
	}

	// Sliced ≡ the paper's oracle: the same preemptible core, driven under
	// the differential plan instead of the service's Hashed source, must
	// land on the literal Section 3.1 evaluator's states.
	restarts := "scenario reboots\ntopo ring 6 rip\nseed 4\nhorizon 150\nat 30 restart 2\nat 70 restart 4\nat 71 restart 0\nat 110 restart 5\n"
	wedgie, err := os.ReadFile("../../examples/scenarios/wedgie-flap.scenario")
	if err != nil {
		t.Fatal(err)
	}
	t.Run("reference/wedgie-flap", func(t *testing.T) { slicedAgainstReference(t, string(wedgie), buildGadget) })
	t.Run("reference/topo-rip", func(t *testing.T) { slicedAgainstReference(t, topoRunnerScenario, buildTopo) })
	t.Run("reference/restarts", func(t *testing.T) { slicedAgainstReference(t, restarts, buildTopo) })
}

// slicedAgainstReference advances a core over the differential plan in
// quanta of 7 — once straight through, once with a checkpoint → resume
// round trip into a rebuilt instance after half the events have fired —
// and holds every event-boundary state and the final state to
// replayReference. A resumed run only marks the events it fires itself,
// so its marks are compared with the tail of the reference's.
func slicedAgainstReference[R any](t *testing.T, text string, build func(*Scenario) (*instance[R], error)) {
	sc, err := Parse([]byte(text))
	if err != nil {
		t.Fatal(err)
	}
	fresh := func() *instance[R] {
		inst, err := build(sc)
		if err != nil {
			t.Fatal(err)
		}
		return inst
	}
	ref := fresh()
	p := newPlan(sc, ref.n)
	bounds, final := replayReference(ref, p, sc.Events)
	hopAt := sc.Events[(len(sc.Events)-1)/2].Step

	for _, hop := range []bool{false, true} {
		c, err := newCore(sc, fresh(), p, nil)
		if err != nil {
			t.Fatal(err)
		}
		r := newShell(sc)
		r.core = c
		hopped := false
		for done := false; !done; {
			if done, err = r.Advance(7); err != nil {
				t.Fatalf("hop=%v step %d: %v", hop, r.Step(), err)
			}
			if hop && !hopped && !done && r.Step() >= hopAt {
				data, err := r.Checkpoint()
				if err != nil {
					t.Fatalf("checkpoint at step %d: %v", r.Step(), err)
				}
				r.Close()
				if c, err = resumeCore(sc, fresh(), p, data); err != nil {
					t.Fatalf("resume at step %d: %v", r.Step(), err)
				}
				r.core, hopped = c, true
			}
		}
		if hop && !hopped {
			t.Fatal("run finished before the checkpoint hop")
		}
		marks, want := c.res.Marks(), bounds
		if hop {
			want = bounds[len(bounds)-len(marks):]
			if len(marks) == 0 || len(marks) == len(bounds) {
				t.Fatalf("hop at step ≥ %d left %d of %d marks to the resumed run; want some before and some after", hopAt, len(marks), len(bounds))
			}
		}
		if len(marks) != len(want) {
			t.Fatalf("hop=%v: %d marks, reference has %d boundaries", hop, len(marks), len(want))
		}
		for i := range marks {
			if !marks[i].Equal(ref.alg, want[i]) {
				t.Fatalf("hop=%v: state at event %d of %d diverges from the reference", hop, len(bounds)-len(want)+i, len(bounds))
			}
		}
		if !c.res.Final().Equal(ref.alg, final) {
			t.Fatalf("hop=%v: final state diverges from the reference:\n%s\nwant:\n%s", hop, c.res.Final().Format(ref.alg), final.Format(ref.alg))
		}
		r.Close()
	}
}

// TestRunnerQuantumAllocation pins the mechanism that makes slicing
// cheap: a quantum on a live run is a Step call on warm scratch, so it
// allocates next to nothing — where ending every quantum in a snapshot
// and starting the next with a restore cost 230 KB per quantum on this
// scenario.
func TestRunnerQuantumAllocation(t *testing.T) {
	sc, err := Parse([]byte("scenario heavy\ntopo ring 64 rip\nseed 9\nhorizon 4096\nat 4000 linkdown 0 1\n"))
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewRunner(sc)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	advance := func(quanta int) {
		for q := 0; q < quanta; q++ {
			if done, err := r.Advance(64); err != nil || done {
				t.Fatalf("quantum at step %d: done=%v err=%v", r.Step(), done, err)
			}
		}
	}
	advance(8)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	advance(40)
	runtime.ReadMemStats(&after)
	if perQuantum := (after.TotalAlloc - before.TotalAlloc) / 40; perQuantum >= 16<<10 {
		t.Fatalf("a warm quantum allocates %d bytes (%d mallocs), want < 16 KB",
			perQuantum, (after.Mallocs-before.Mallocs)/40)
	}
}

// TestRunnerChurnSharesSpareScratch: every service request builds and
// closes its own engine, so requests of one shape hand run scratch to one
// another through the engine package's process-wide spare list. Two
// goroutines churning NewRunner … Close on one shape — one of them also
// abandoning a run mid-flight — must each keep reading the hash of the
// run nobody shared scratch with (run under -race in CI).
func TestRunnerChurnSharesSpareScratch(t *testing.T) {
	want, _, _ := uninterrupted(t, topoRunnerScenario)
	sc, err := Parse([]byte(topoRunnerScenario))
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for iter := 0; iter < 30; iter++ {
				r, err := NewRunner(sc)
				if err != nil {
					t.Error(err)
					return
				}
				abandon := g == 1 && iter%3 == 2
				for done := false; !done && !(abandon && r.Step() > 100); {
					if done, err = r.Advance(37); err != nil {
						t.Error(err)
					}
				}
				if got := r.FinalHash(); !abandon && got != want {
					t.Errorf("goroutine %d, request %d: hash %016x, want %016x", g, iter, got, want)
				}
				r.Close()
			}
		}(g)
	}
	wg.Wait()
}

func TestRunnerCheckpointLifecycleErrors(t *testing.T) {
	sc, err := Parse([]byte(topoRunnerScenario))
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewRunner(sc)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if _, err := r.Checkpoint(); err == nil {
		t.Fatal("checkpoint of a never-started run succeeded")
	}
	if _, err := r.Advance(0); err == nil {
		t.Fatal("zero quantum accepted")
	}
	if done, err := r.Advance(25); err != nil || done {
		t.Fatalf("first quantum: done=%v err=%v", done, err)
	}
	data, err := r.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}

	// A flipped byte must be caught by the checksum, never resumed.
	bad := append([]byte(nil), data...)
	bad[len(bad)/2] ^= 0x40
	if _, err := ResumeRunner(bad); err == nil {
		t.Fatal("resume accepted a corrupted checkpoint")
	}
	if _, err := ResumeRunner([]byte("not a checkpoint")); err == nil {
		t.Fatal("resume accepted garbage")
	}

	if done, err := r.Advance(sc.Horizon + 1); err != nil || !done {
		t.Fatalf("final quantum: done=%v err=%v", done, err)
	}
	if _, err := r.Checkpoint(); err == nil {
		t.Fatal("checkpoint of a finished run succeeded")
	}
	if done, err := r.Advance(10); err != nil || !done {
		t.Fatalf("advance past done: done=%v err=%v", done, err)
	}
}

func TestServiceableRejectsCrashTimelines(t *testing.T) {
	sc, err := Parse([]byte("scenario c\ntopo ring 4 rip\nhorizon 50\nat 10 crash 1\nat 20 recover 1\n"))
	if err != nil {
		t.Fatal(err)
	}
	err = Serviceable(sc)
	if err == nil || !strings.Contains(err.Error(), "not serviceable") {
		t.Fatalf("crash timeline accepted by Serviceable: %v", err)
	}
	if _, err := NewRunner(sc); err == nil {
		t.Fatal("NewRunner accepted a crash timeline")
	}
}
