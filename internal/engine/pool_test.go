package engine_test

import (
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/algebras"
	"repro/internal/engine"
	"repro/internal/matrix"
)

// TestCloseDuringRun: Engine is documented as safe for concurrent use,
// which includes one goroutine tearing the engine down while another is
// mid-Run — the racing Run must degrade to inline execution and still
// produce the right answer, never panic on the closed pool. The same
// holds for a run paused in a Stepper when either side is closed.
func TestCloseDuringRun(t *testing.T) {
	alg, adj := incrementalNet(192)
	start := matrix.Identity[algebras.NatInf](alg, 192)
	src := engine.Synchronous{N: 192, T: 6}
	want := engine.Run[algebras.NatInf](alg, adj, start, src).Final()

	for trial := 0; trial < 8; trial++ {
		eng := engine.New[algebras.NatInf](alg, adj, engine.Config{Workers: 4})
		var wg sync.WaitGroup
		results := make([]*matrix.State[algebras.NatInf], 2)
		for g := 0; g < 2; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				results[g] = eng.Run(start, src).Final()
			}(g)
		}
		eng.Close() // races the Runs above
		wg.Wait()
		for g, got := range results {
			identicalStates(t, "run racing Close", got, want)
			_ = g
		}
		eng.Close() // idempotent
	}

	// A paused stepper holds the engine's scratch. Closing the stepper
	// mid-run must hand back scratch the next Run can use as if fresh;
	// closing the engine under a paused stepper must leave the stepper
	// able to finish inline; and neither may panic or strand a helper.
	goroutines := runtime.NumGoroutine()
	for trial := 0; trial < 4; trial++ {
		eng := engine.New[algebras.NatInf](alg, adj, engine.Config{Workers: 4})
		st := mustStart(t, eng, start, src, nil)
		st.Step(2 + trial%3)
		st.Close()
		st.Close() // idempotent
		identicalStates(t, "run after Stepper.Close", eng.Run(start, src).Final(), want)

		st = mustStart(t, eng, start, src, nil)
		st.Step(3)
		eng.Close() // under the paused stepper
		if !st.Step(src.T) {
			t.Fatal("stepper did not finish after Engine.Close")
		}
		identicalStates(t, "stepper finishing after Engine.Close", st.Result().Final(), want)
		identicalStates(t, "run after Engine.Close", eng.Run(start, src).Final(), want)

		eng = engine.New[algebras.NatInf](alg, adj, engine.Config{Workers: 4})
		st = mustStart(t, eng, start, src, nil)
		st.Step(3)
		eng.Close()
		st.Close() // abandoned on a closed engine
	}
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > goroutines; {
		if time.Now().After(deadline) {
			t.Fatalf("goroutine leak: %d before, %d after", goroutines, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestParallelStepsDoNotAllocate: a step that fans out across the pool
// reuses the run's own job, so a warm engine's parallel run allocates per
// run, not per step — and two runs in flight on one engine, each with its
// own job, stay bit-identical to the sequential answer.
func TestParallelStepsDoNotAllocate(t *testing.T) {
	alg, adj := incrementalNet(192)
	start := matrix.Identity[algebras.NatInf](alg, 192)
	src := engine.Synchronous{N: 192, T: 40}
	want := engine.New[algebras.NatInf](alg, adj, engine.Config{Workers: 1}).Run(start, src)

	eng := engine.New[algebras.NatInf](alg, adj, engine.Config{Workers: 2, Termination: engine.TermOff})
	defer eng.Close()
	var got *engine.Result[algebras.NatInf]
	allocs := testing.AllocsPerRun(3, func() { got = eng.Run(start, src) })
	identicalStates(t, "parallel run", got.Final(), want.Final())
	// 40 parallel steps used to cost a job and a closure each.
	if allocs > 20 {
		t.Fatalf("a warm 40-step parallel run allocates %.0f times, want it independent of the step count (≤ 20)", allocs)
	}

	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			st, err := eng.Start(start, src, nil)
			if err != nil {
				t.Error(err)
				return
			}
			for k := 1; !st.Step(k); k++ {
			}
			if got := st.Result().Final(); !got.Equal(alg, want.Final()) {
				t.Error("concurrent parallel runs on one engine diverged from the sequential answer")
			}
		}()
	}
	wg.Wait()
}
