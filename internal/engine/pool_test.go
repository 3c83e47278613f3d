package engine_test

import (
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/algebras"
	"repro/internal/engine"
	"repro/internal/matrix"
	"repro/internal/topology"
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
	goroutines := runtime.NumGoroutine()

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

		// Close right behind a finished run finds the helpers still
		// polling their mailboxes; they must notice and exit all the same.
		eng = engine.New[algebras.NatInf](alg, adj, engine.Config{Workers: 4})
		identicalStates(t, "run before Close", eng.Run(start, src).Final(), want)
		eng.Close()
	}

	// A paused stepper holds the engine's scratch. Closing the stepper
	// mid-run must hand back scratch the next Run can use as if fresh;
	// closing the engine under a paused stepper must leave the stepper
	// able to finish inline; and neither may panic or strand a helper.
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
	waitGoroutines(t, goroutines)
}

// waitGoroutines fails the test unless the goroutine count falls back to
// want: helpers exit a hand-off bound after their pool closes.
func waitGoroutines(t *testing.T, want int) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > want; {
		if time.Now().After(deadline) {
			t.Fatalf("goroutine leak: %d before, %d after", want, runtime.NumGoroutine())
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
	sync40 := engine.Synchronous{N: 192, T: 40}
	want := engine.New[algebras.NatInf](alg, adj, engine.Config{Workers: 1}).Run(start, sync40)

	goroutines := runtime.NumGoroutine()
	eng := engine.New[algebras.NatInf](alg, adj, engine.Config{Workers: 2})
	src := march(sync40)
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
			if !sameRun(alg, st.Result(), want) {
				t.Error("concurrent parallel runs on one engine diverged from the sequential answer")
			}
		}()
	}
	wg.Wait()

	// One goroutine alternating two steppers: every fan-out of one finds
	// the single helper hot from, or still busy with, the other's job.
	a, b := mustStart(t, eng, start, src, nil), mustStart(t, eng, start, src, nil)
	for k := 1; k <= sync40.T; k++ {
		a.Step(k)
		b.Step(k)
	}
	for _, st := range []*engine.Stepper[algebras.NatInf]{a, b} {
		if !sameRun(alg, st.Result(), want) {
			t.Error("interleaved steppers on one engine diverged from the sequential answer")
		}
	}
	eng.Close()
	waitGoroutines(t, goroutines)
}

// sameRun reports whether two hop-count runs agree in final state and in
// every Stats field.
func sameRun(alg algebras.HopCount, got, want *engine.Result[algebras.NatInf]) bool {
	return got.Final().Equal(alg, want.Final()) && got.Stats() == want.Stats()
}

// TestHotHandOff holds the pool's hand-off to its contract: whatever the
// worker count, a run is the sequential run in state and in every Stats
// field; a helper polls for one bound after its last job and then parks,
// so an idle engine and a paused stepper cost nothing; and Close finds
// polling helpers as surely as parked ones.
func TestHotHandOff(t *testing.T) {
	syncAlg, syncAdj := incrementalNet(192)
	e5Alg, e5Adj := benchNet(128)
	shapes := []struct {
		name string
		alg  algebras.HopCount
		adj  *matrix.Adjacency[algebras.NatInf]
		src  engine.Source
	}{
		{"synchronous-192", syncAlg, syncAdj, engine.Synchronous{N: 192, T: 60}},
		{"hashed-128", e5Alg, e5Adj, engine.Hashed{N: 128, T: 1280, Seed: 5, MaxGap: 16, MaxStaleness: 8}},
	}
	for _, sh := range shapes {
		t.Run(sh.name, func(t *testing.T) {
			start := matrix.Identity[algebras.NatInf](sh.alg, sh.adj.N)
			want := engine.New[algebras.NatInf](sh.alg, sh.adj, engine.Config{Workers: 1}).Run(start, sh.src)
			for _, w := range []int{2, 4, 8} {
				eng := engine.New[algebras.NatInf](sh.alg, sh.adj, engine.Config{Workers: w})
				for rep := 0; rep < 2; rep++ {
					got := eng.Run(start, sh.src)
					identicalStates(t, fmt.Sprintf("workers=%d rep %d", w, rep), got.Final(), want.Final())
					if got.Stats() != want.Stats() {
						t.Fatalf("workers=%d rep %d: stats %+v, sequential %+v", w, rep, got.Stats(), want.Stats())
					}
				}
				if _, fanouts, _ := engine.PoolCounters(eng); fanouts == 0 {
					t.Fatalf("workers=%d never fanned out; the comparison tested nothing", w)
				}
				eng.Close()
			}
		})
	}

	start := matrix.Identity[algebras.NatInf](syncAlg, 192)
	src := engine.Synchronous{N: 192, T: 60}
	want := engine.New[algebras.NatInf](syncAlg, syncAdj, engine.Config{Workers: 1}).Run(start, src)

	// quiet waits for every helper to stop polling, then requires an idle
	// window: no goroutine comes or goes, and the process burns (almost)
	// no CPU — one helper still polling would burn the whole window.
	quiet := func(t *testing.T, eng *engine.Engine[algebras.NatInf]) {
		t.Helper()
		for deadline := time.Now().Add(5 * time.Second); engine.PoolPolling(eng) > 0; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("%d helpers still polling, seconds past the hand-off bound", engine.PoolPolling(eng))
			}
		}
		time.Sleep(50 * time.Millisecond)
		g0 := runtime.NumGoroutine()
		c0, ok := processCPU()
		time.Sleep(50 * time.Millisecond)
		if g := runtime.NumGoroutine(); g != g0 {
			t.Fatalf("goroutine count moved from %d to %d on an idle engine", g0, g)
		}
		if c1, _ := processCPU(); ok && !raceEnabled && c1-c0 >= 5*time.Millisecond {
			t.Fatalf("an idle engine burned %v of CPU in 50 ms", c1-c0)
		}
	}

	t.Run("idle", func(t *testing.T) {
		eng := engine.New[algebras.NatInf](syncAlg, syncAdj, engine.Config{Workers: 4})
		defer eng.Close()
		eng.Run(start, src)
		if started, _, _ := engine.PoolCounters(eng); !started {
			t.Fatal("the run never started the helpers")
		}
		quiet(t, eng)
	})

	t.Run("paused-stepper", func(t *testing.T) {
		eng := engine.New[algebras.NatInf](syncAlg, syncAdj, engine.Config{Workers: 4})
		defer eng.Close()
		st := mustStart(t, eng, start, src, nil)
		st.Step(3)
		if _, fanouts, _ := engine.PoolCounters(eng); fanouts == 0 {
			t.Fatal("three synchronous steps at n = 192 never fanned out")
		}
		quiet(t, eng)
		st.Step(src.T)
		if !sameRun(syncAlg, st.Result(), want) {
			t.Fatal("a stepper resumed after its helpers parked diverged from the sequential answer")
		}
	})
}

// ring is a RIP ring of n nodes, the service workloads' topology.
func ring(n int) (algebras.HopCount, *matrix.Adjacency[algebras.NatInf]) {
	alg := algebras.RIP()
	return alg, topology.BuildUniform[algebras.NatInf](topology.Ring(n), alg.AddEdge(1))
}

// TestSmallRunsStayInline: the cost model prices a row at what the
// kernels walk, n·(deg+1), so the service's requests — cmd/bench's ring-64
// horizon-4096 request with its late link failure, driven in quanta of 64
// like the daemon does, and its ring-8 horizon-300 request — never reach the
// fan-out threshold on a default engine: no helper goroutine is started,
// no hand-off made. (Priced at n·n, every request fanned out four times
// for one task's worth of help.) E5 at n = 512 is what the pool is for
// and still fans out nearly every step.
func TestSmallRunsStayInline(t *testing.T) {
	for _, n := range []int{64, 8} {
		alg, adj := ring(n)
		eng := engine.New[algebras.NatInf](alg, adj, engine.Config{})
		src := engine.Hashed{N: n, T: 4096, Seed: 1, ActivationProbMille: 600, MaxStaleness: 4}
		events := []engine.TimelineEvent[algebras.NatInf]{{
			Step: 4000,
			Mutate: func(a *matrix.Adjacency[algebras.NatInf]) {
				a.RemoveEdge(0, 1)
				a.RemoveEdge(1, 0)
			},
			Invalidate: []int{0, 1},
		}}
		st := mustStart(t, eng, matrix.Identity[algebras.NatInf](alg, n), src, events)
		for k := 64; !st.Step(k); k += 64 {
		}
		_, linked := adj.Edge(0, 1)
		if res := st.Result(); linked || res.Stats().RowsComputed == 0 {
			t.Fatalf("ring-%d: the request did not play its event: link 0–1 up %v, %+v", n, linked, res.Stats())
		}
		if started, fanouts, _ := engine.PoolCounters(eng); started || fanouts != 0 {
			t.Fatalf("ring-%d request: helpers started=%v, %d fan-outs; want none", n, started, fanouts)
		}
		eng.Close()
		if started, _, _ := engine.PoolCounters(eng); started {
			t.Fatalf("ring-%d: Close started the helpers of a pool that never fanned out", n)
		}
	}

	alg, adj := benchNet(512)
	eng := engine.New[algebras.NatInf](alg, adj, engine.Config{Workers: 2})
	defer eng.Close()
	stats := eng.Run(matrix.Identity[algebras.NatInf](alg, 512), engine.Hashed{N: 512, T: 5120, Seed: 1, MaxGap: 16, MaxStaleness: 8}).Stats()
	if _, fanouts, _ := engine.PoolCounters(eng); 10*fanouts < 9*int64(stats.Steps) {
		t.Fatalf("E5 at n = 512 fanned out on %d of %d steps, want ≥ 90 %%", fanouts, stats.Steps)
	}
}
