package scenario

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"

	"repro/internal/algebras"
	"repro/internal/checkpoint"
	"repro/internal/engine"
	"repro/internal/matrix"
	"repro/internal/wire"
)

// The service-path contract: a Runner advanced in quanta — in one
// process or checkpointed to bytes and replayed in a rebuilt one — must
// finish with exactly the final table and work counters of the run that
// was never paused. FinalHash folds the codec-encoded cells and the
// pause-invariant counters, so hash equality IS the bit-identity
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
// returns its fingerprint, table and counters.
func uninterrupted(t *testing.T, text string) (uint64, string, engine.Stats) {
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
	return r.FinalHash(), r.FinalTable(), r.Stats()
}

func TestRunnerSlicedDifferential(t *testing.T) {
	type row struct {
		name, text string
		quanta     []int
	}
	rows := []row{
		{"topo-rip", topoRunnerScenario, []int{13, 37, 111}},
		{"gadget-wedgie", gadgetRunnerScenario, []int{13, 37, 111}},
	}
	// Every shipped scenario, crash windows included, in quanta of 7.
	files, err := filepath.Glob("../../examples/scenarios/*.scenario")
	if err != nil || len(files) != 6 {
		t.Fatalf("want the six example scenarios, found %d (%v)", len(files), err)
	}
	for _, f := range files {
		text, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		rows = append(rows, row{"examples/" + strings.TrimSuffix(filepath.Base(f), ".scenario"), string(text), []int{7}})
	}
	for _, tc := range rows {
		t.Run(tc.name, func(t *testing.T) {
			wantHash, wantTable, wantStats := uninterrupted(t, tc.text)
			wantSteps := wantStats.Steps
			if wantHash == 0 || wantTable == "" {
				t.Fatal("uninterrupted run produced no fingerprint")
			}
			// The batch door runs the same schedule: Run's engine digest is
			// the Runner's (the hash folds cells, rows and convergedAt).
			sc, err := Parse([]byte(tc.text))
			if err != nil {
				t.Fatal(err)
			}
			rep, err := Run(sc)
			if err != nil {
				t.Fatal(err)
			}
			if b := rep.Substrates[0]; !b.ReferenceOK || b.Hash != wantHash || b.Steps != wantSteps || b.Converged != (b.ConvergedAt >= 0) {
				t.Fatalf("Run: reference=%v hash %016x steps %d converged=%v convergedAt=%d; unsliced Runner: hash %016x steps %d",
					b.ReferenceOK, b.Hash, b.Steps, b.Converged, b.ConvergedAt, wantHash, wantSteps)
			}

			for _, quantum := range tc.quanta {
				// In-process preemption: one runner, advanced in quanta.
				r, err := NewRunner(sc.Clone())
				if err != nil {
					t.Fatal(err)
				}
				slices := 0
				var liveStats []engine.Stats // after every quantum
				for done := false; !done; slices++ {
					if done, err = r.Advance(quantum); err != nil {
						t.Fatalf("quantum=%d slice %d: %v", quantum, slices, err)
					}
					if slices > sc.Horizon {
						t.Fatalf("quantum=%d: run never finished", quantum)
					}
					liveStats = append(liveStats, r.Stats())
				}
				if slices < 2 {
					t.Fatalf("quantum=%d: run never sliced", quantum)
				}
				if got := r.FinalHash(); got != wantHash {
					t.Fatalf("quantum=%d: sliced hash %x, uninterrupted %x\nsliced table:\n%s\nwant:\n%s",
						quantum, got, wantHash, r.FinalTable(), wantTable)
				}
				if got := r.Stats(); got != wantStats {
					t.Fatalf("quantum=%d: sliced stats %+v, uninterrupted %+v", quantum, got, wantStats)
				}
				r.Close()

				// Cross-process preemption: after every quantum the run is
				// checkpointed to bytes, the runner torn down, and a fresh one
				// replayed from the bytes alone to the same step.
				r, err = NewRunner(sc.Clone())
				if err != nil {
					t.Fatal(err)
				}
				hops := 0
				var hopStats []engine.Stats
				for {
					done, err := r.Advance(quantum)
					if err != nil {
						t.Fatalf("quantum=%d hop %d: %v", quantum, hops, err)
					}
					hopStats = append(hopStats, r.Stats())
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
				// The live stepper and the checkpoint→replay chain stand at
				// the same counters quantum by quantum, not merely in total.
				if !reflect.DeepEqual(liveStats, hopStats) {
					t.Fatalf("quantum=%d: per-quantum stats diverge:\nin-process  %v\ncheckpointed %v", quantum, liveStats, hopStats)
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

	// Sliced ≡ the paper's oracle: the preemptible core, under the one
	// schedule every door runs, must land on the literal Section 3.1
	// evaluator's states — β crossing event steps, early termination and
	// interlude jumps included.
	restarts := "scenario reboots\ntopo ring 6 rip\nseed 4\nhorizon 150\nat 30 restart 2\nat 70 restart 4\nat 71 restart 0\nat 110 restart 5\n"
	wedgie, err := os.ReadFile("../../examples/scenarios/wedgie-flap.scenario")
	if err != nil {
		t.Fatal(err)
	}
	t.Run("reference/wedgie-flap", func(t *testing.T) { slicedAgainstReference(t, string(wedgie), buildGadget) })
	t.Run("reference/topo-rip", func(t *testing.T) { slicedAgainstReference(t, topoRunnerScenario, buildTopo) })
	t.Run("reference/restarts", func(t *testing.T) { slicedAgainstReference(t, restarts, buildTopo) })
	t.Run("reference/crash", func(t *testing.T) {
		// Node 2 is down over (40, 90); the hop follows the event at 60.
		if at := slicedAgainstReference(t, crashRunnerScenario, buildTopo); at <= 40 || at >= 90 {
			t.Fatalf("checkpoint hop at step %d, want inside the crash window (40, 90)", at)
		}
	})
}

const crashRunnerScenario = `scenario crash-window
topo ring 6 rip
seed 13
horizon 200
at 20 linkdown 0 1
at 40 crash 2
at 60 linkdown 4 5
at 90 recover 2
at 120 linkup 4 5
`

// slicedAgainstReference advances a core in quanta of 7 — once straight
// through, once with a checkpoint → replay round trip into a rebuilt
// instance after half the events have fired — and holds every
// event-boundary state and the final state to replayReference. It returns
// the step of the hop.
func slicedAgainstReference[R any](t *testing.T, text string, build func(*Scenario) (*instance[R], error)) (hopStep int) {
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
	bounds, final := replayReference(sc, ref)
	hopAt := sc.Events[(len(sc.Events)-1)/2].Step

	for _, hop := range []bool{false, true} {
		c, err := newCore(sc, fresh())
		if err != nil {
			t.Fatal(err)
		}
		r := &Runner{sc: sc, core: c}
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
				hopStep = r.Step()
				r.Close()
				if c, err = newCore(sc, fresh()); err != nil {
					t.Fatal(err)
				}
				if err := c.resume(data); err != nil {
					t.Fatalf("resume at step %d: %v", hopStep, err)
				}
				r.core, hopped = c, true
			}
		}
		if hop && !hopped {
			t.Fatal("run finished before the checkpoint hop")
		}
		marks := c.res.Marks()
		if len(marks) != len(bounds) {
			t.Fatalf("hop=%v: %d marks, reference has %d boundaries", hop, len(marks), len(bounds))
		}
		for i := range marks {
			if !marks[i].Equal(ref.alg, bounds[i]) {
				t.Fatalf("hop=%v: state at event %d of %d diverges from the reference", hop, i, len(bounds))
			}
		}
		if !c.res.Final().Equal(ref.alg, final) {
			t.Fatalf("hop=%v: final state diverges from the reference:\n%s\nwant:\n%s", hop, c.res.Final().Format(ref.alg), final.Format(ref.alg))
		}
		r.Close()
	}
	return hopStep
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

var update = flag.Bool("update", false, "rewrite the golden checkpoint files")

// goldenAt is the step the golden checkpoints were taken at.
const goldenAt = 100

// TestGoldenCheckpointsResume resumes a committed checkpoint of each
// carrier family — natinf for topologies, spp for gadgets — through
// ResumeRunner and requires the uninterrupted run's digest. The files pin
// the format and the replay: a build that cannot read them, or whose δ no
// longer reaches their witness, fails here.
func TestGoldenCheckpointsResume(t *testing.T) {
	for _, tc := range []struct{ family, text string }{
		{"natinf", topoRunnerScenario},
		{"spp", gadgetRunnerScenario},
	} {
		t.Run(tc.family, func(t *testing.T) {
			golden := filepath.Join("testdata", tc.family+".ckpt")
			if *update {
				sc, err := Parse([]byte(tc.text))
				if err != nil {
					t.Fatal(err)
				}
				r, err := NewRunner(sc)
				if err != nil {
					t.Fatal(err)
				}
				if done, err := r.Advance(goldenAt); err != nil || done {
					t.Fatalf("advance to %d: done=%v err=%v", goldenAt, done, err)
				}
				data, err := r.Checkpoint()
				r.Close()
				if err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(golden, data, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			data, err := os.ReadFile(golden)
			if err != nil {
				t.Fatalf("golden file: %v (run with -update to regenerate)", err)
			}
			if family, _, err := checkpoint.Header(data); err != nil || family != tc.family {
				t.Fatalf("header: family %q, err %v", family, err)
			}
			r, err := ResumeRunner(data)
			if err != nil {
				t.Fatal(err)
			}
			defer r.Close()
			if r.Step() != goldenAt {
				t.Fatalf("resumed at step %d, want %d", r.Step(), goldenAt)
			}
			if done, err := r.Advance(r.Horizon() + 1); err != nil || !done {
				t.Fatalf("final quantum: done=%v err=%v", done, err)
			}
			wantHash, _, wantStats := uninterrupted(t, tc.text)
			if r.FinalHash() != wantHash || r.Stats() != wantStats {
				t.Fatalf("resumed hash %016x stats %+v, uninterrupted %016x %+v", r.FinalHash(), r.Stats(), wantHash, wantStats)
			}
		})
	}
}

// TestResumeRefusesAWrongWitness re-encodes a real checkpoint with one
// witness cell changed, a witness of another size, or a step the replay
// never reaches: the checksum is valid, and ResumeRunner must still
// refuse the file.
func TestResumeRefusesAWrongWitness(t *testing.T) {
	sc, err := Parse([]byte(topoRunnerScenario))
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewRunner(sc)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if done, err := r.Advance(60); err != nil || done {
		t.Fatalf("first quantum: done=%v err=%v", done, err)
	}
	data, err := r.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	codec := wire.NatInfCodec{}
	reencode := func(edit func(f *checkpoint.File[algebras.NatInf])) []byte {
		t.Helper()
		f, err := checkpoint.Decode(codec, data, familyNatInf)
		if err != nil {
			t.Fatal(err)
		}
		edit(f)
		out, err := checkpoint.Encode(codec, f)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	if same := reencode(func(*checkpoint.File[algebras.NatInf]) {}); !bytes.Equal(same, data) {
		t.Fatal("decode → encode does not reproduce the checkpoint")
	}
	for name, edit := range map[string]func(f *checkpoint.File[algebras.NatInf]){
		"witness cell":      func(f *checkpoint.File[algebras.NatInf]) { f.State.Set(0, 3, f.State.Get(0, 3)+1) },
		"step past the end": func(f *checkpoint.File[algebras.NatInf]) { f.Step = sc.Horizon + 1 },
		"witness size": func(f *checkpoint.File[algebras.NatInf]) {
			f.State = matrix.Identity[algebras.NatInf](algebras.HopCount{}, 3)
		},
	} {
		if bad, err := ResumeRunner(reencode(edit)); err == nil {
			bad.Close()
			t.Errorf("ResumeRunner accepted a checkpoint with a wrong %s", name)
		}
	}
}

// TestCrashMaskCannotBeBypassed: every schedule answer the engine can get
// out of a crash timeline's source — Active, and ActiveSet/CountActive
// should the source ever expose engine.Batched — is the crash-free
// Hashed's, minus the down node strictly inside its window. Embedding
// Hashed in the mask promotes its unmasked whole-step methods and fails
// here.
func TestCrashMaskCannotBeBypassed(t *testing.T) {
	sc, err := Parse([]byte(crashRunnerScenario))
	if err != nil {
		t.Fatal(err)
	}
	const n, node, from, to = 6, 2, 40, 90
	bare := sc.Clone()
	bare.Events = nil
	inner, ok := source(bare, n).(engine.Hashed)
	if !ok {
		t.Fatalf("a crash-free scenario's source is %T, want the bare engine.Hashed", source(bare, n))
	}
	src := source(sc, n)
	batched, _ := src.(engine.Batched)
	masked, count := 0, 0
	for step := 1; step <= sc.Horizon; step++ {
		var want []int
		for i := 0; i < n; i++ {
			down := i == node && from < step && step < to
			if inner.Active(step, i) && down {
				masked++
			}
			active := inner.Active(step, i) && !down
			if active {
				want = append(want, i)
			}
			if got := src.Active(step, i); got != active {
				t.Fatalf("Active(%d, %d) = %v, want %v", step, i, got, active)
			}
			for k := 0; k < n; k++ {
				if got := src.Beta(step, i, k); got != inner.Beta(step, i, k) {
					t.Fatalf("Beta(%d, %d, %d) = %d, want the inner source's %d", step, i, k, got, inner.Beta(step, i, k))
				}
			}
		}
		count += len(want)
		if batched == nil {
			continue
		}
		if got := batched.ActiveSet(step, nil); !reflect.DeepEqual(got, want) {
			t.Fatalf("ActiveSet(%d) = %v, want %v: the mask is bypassed", step, got, want)
		}
		if got := batched.CountActive(1, step); got != count {
			t.Fatalf("CountActive(1, %d) = %d, want %d: the mask is bypassed", step, got, count)
		}
	}
	if masked == 0 {
		t.Fatal("the inner source never activates the down node inside its window; the test masks nothing")
	}
	if src.(engine.Fair).FairPeriod() != inner.FairPeriod() || src.MaxLookback() != inner.MaxLookback() {
		t.Fatal("the mask does not forward FairPeriod and MaxLookback")
	}
}
