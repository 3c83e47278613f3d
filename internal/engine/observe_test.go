package engine_test

import (
	"sync"
	"testing"

	"repro/internal/algebras"
	"repro/internal/engine"
	"repro/internal/matrix"
)

// The observer contract: one call per completed run with its final
// Stats, from Result and nowhere else — however many Step calls the run
// took, and never for a run that was Closed; a snapshot-halt preemption
// observes nothing (the resumed run observes once, with cumulative
// counters); removal stops the calls.
func TestObserveRuns(t *testing.T) {
	var mu sync.Mutex
	var seen []engine.Stats
	engine.ObserveRuns(func(s engine.Stats) {
		mu.Lock()
		seen = append(seen, s)
		mu.Unlock()
	})
	defer engine.ObserveRuns(nil)
	count := func() int {
		mu.Lock()
		defer mu.Unlock()
		return len(seen)
	}

	alg, adj, _ := hopNet()
	n := adj.N
	start := matrix.Identity[algebras.NatInf](alg, n)
	src := engine.Hashed{N: n, T: 200, Seed: 3, MaxGap: 6, MaxStaleness: 5}
	eng := engine.New(alg, adj, engine.Config{})
	defer eng.Close()

	res := eng.Run(start, src)
	if count() != 1 {
		t.Fatalf("completed run observed %d times, want 1", count())
	}
	if seen[0] != res.Stats() {
		t.Fatalf("observed %+v, result says %+v", seen[0], res.Stats())
	}

	// Preemption: halting at step 3 is not a completion.
	_, snap := eng.RunSnapshot(start, src, 3, true)
	if snap == nil {
		t.Fatal("no snapshot captured")
	}
	if count() != 1 {
		t.Fatalf("halted run observed (count %d), preemptions must not observe", count())
	}

	// The resumed continuation completes and observes once, with the
	// cumulative stats of the whole logical run.
	resumed, err := eng.Restore(snap, src)
	if err != nil {
		t.Fatal(err)
	}
	if count() != 2 {
		t.Fatalf("resumed run observed %d times total, want 2", count())
	}
	if seen[1] != resumed.Stats() {
		t.Fatalf("observed %+v, resumed result says %+v", seen[1], resumed.Stats())
	}

	// A non-halting snapshot run completes normally and observes.
	full, _ := eng.RunSnapshot(start, src, 3, false)
	if count() != 3 {
		t.Fatalf("snapshotting run observed %d times total, want 3", count())
	}
	if seen[2] != full.Stats() {
		t.Fatalf("observed %+v, result says %+v", seen[2], full.Stats())
	}

	// A stepped run observes exactly once, in Result, with the same
	// Stats the one-call run reported.
	st := mustStart(t, eng, start, src, nil)
	steps := 0
	for k := 1; !st.Step(k); k++ {
		steps++
	}
	if steps < 2 || count() != 3 {
		t.Fatalf("stepping observed (count %d after %d Step calls), only Result may", count(), steps)
	}
	stepped := st.Result()
	st.Result()
	st.Close()
	if count() != 4 {
		t.Fatalf("stepped run observed %d times total, want 4", count())
	}
	if seen[3] != stepped.Stats() || seen[3] != res.Stats() {
		t.Fatalf("observed %+v, stepped result says %+v, one-call run %+v", seen[3], stepped.Stats(), res.Stats())
	}

	// An abandoned run is not a completion.
	st = mustStart(t, eng, start, src, nil)
	st.Step(3)
	st.Close()
	if count() != 4 {
		t.Fatalf("closed run observed (count %d)", count())
	}

	engine.ObserveRuns(nil)
	eng.Run(start, src)
	if count() != 4 {
		t.Fatalf("removed observer still fired (count %d)", count())
	}
}
