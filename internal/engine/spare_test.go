package engine_test

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"repro/internal/algebras"
	"repro/internal/async"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/matrix"
	"repro/internal/schedule"
)

// Run scratch outlives the engine that built it: a finished run parks on
// a process-wide list and serves the next engine of the same shape. These
// tests hold the list to its two obligations — a run is only ever reused
// at the shape it was sized for, and a parked run keeps nothing of the
// engine it served alive.

// shapeCase is one engine shape and the run it must reproduce.
type shapeCase struct {
	n, workers int
	alg        core.Algebra[algebras.NatInf]
	adj        *matrix.Adjacency[algebras.NatInf]
	start      *matrix.State[algebras.NatInf]
	sched      *schedule.Schedule
	want       *matrix.State[algebras.NatInf]
}

func newShapeCase(n, workers int, packed bool, seed int64) shapeCase {
	hop, adj := incrementalNet(n)
	var alg core.Algebra[algebras.NatInf] = hop
	if !packed {
		alg = unpacked[algebras.NatInf]{hop}
	}
	const T = 40
	c := shapeCase{n: n, workers: workers, alg: alg, adj: adj, start: matrix.Identity(alg, n),
		sched: schedule.Random(rand.New(rand.NewSource(seed)), n, T, schedule.Options{MaxGap: 5, MaxStaleness: 3})}
	ref := async.RunReference(alg, adj, c.start, c.sched)
	c.want = ref[len(ref)-1]
	return c
}

func (c shapeCase) String() string { return fmt.Sprintf("n=%d workers=%d %T", c.n, c.workers, c.alg) }

// TestSpareRunShapeMismatch: engines of different node counts, worker
// counts and row representations, back to back and with their runs
// interleaved, each take whatever the previous ones parked — and each must
// still equal the literal reference evaluator, which it only can when a
// spare of another shape is never handed to it.
func TestSpareRunShapeMismatch(t *testing.T) {
	var cases []shapeCase
	for idx, s := range []struct{ n, workers int }{{8, 1}, {64, 1}, {8, 1}, {8, 2}, {64, 2}, {8, 1}, {64, 1}} {
		cases = append(cases, newShapeCase(s.n, s.workers, true, int64(idx)), newShapeCase(s.n, s.workers, false, int64(idx)))
	}
	for round := 0; round < 2; round++ {
		for _, c := range cases {
			eng := engine.New(c.alg, c.adj, engine.Config{Workers: c.workers})
			res := eng.Run(c.start, c.sched)
			eng.Close()
			identicalStates(t, fmt.Sprintf("back to back, round %d, %v", round, c), res.Final(), c.want)
		}
	}
	// Interleaved: every run in flight at once, stepped in turn, so runs of
	// one shape hold distinct scratch and finish into a list that already
	// holds other shapes.
	engs := make([]*engine.Engine[algebras.NatInf], len(cases))
	sts := make([]*engine.Stepper[algebras.NatInf], len(cases))
	for idx, c := range cases {
		engs[idx] = engine.New(c.alg, c.adj, engine.Config{Workers: c.workers})
		sts[idx] = mustStart(t, engs[idx], c.start, c.sched, nil)
	}
	for k := 1; k <= 40; k++ {
		for _, st := range sts {
			st.Step(k)
		}
	}
	for idx, c := range cases {
		identicalStates(t, fmt.Sprintf("interleaved, %v", c), sts[idx].Result().Final(), c.want)
		engs[idx].Close()
	}
}

// TestParkedRunPinsNoEngine: after Close, the scratch a run parked holds
// no path back to the engine's adjacency — through the engine, the row
// capability, the task backing or the timeline — nor
// to the source it was scheduled by, so the collector reclaims both while
// the scratch stays parked.
func TestParkedRunPinsNoEngine(t *testing.T) {
	freed := make(chan string, 4)
	func() {
		for _, packed := range []bool{true, false} {
			c := newShapeCase(8, 1, packed, 1)
			adj := c.adj.Clone()
			sched := schedule.Random(rand.New(rand.NewSource(2)), 8, 40, schedule.Options{MaxGap: 5, MaxStaleness: 3})
			runtime.AddCleanup(adj, func(name string) { freed <- name }, "adjacency, "+c.String())
			runtime.AddCleanup(sched, func(name string) { freed <- name }, "schedule, "+c.String())
			eng := engine.New(c.alg, adj, engine.Config{Workers: 1})
			// A lazy source, then a recorded one (served by the pointwise
			// adapter) under a timeline whose closure holds the adjacency.
			eng.Run(c.start, engine.Hashed{N: 8, T: 60, Seed: 3})
			ev := []engine.TimelineEvent[algebras.NatInf]{{Step: 20, Restart: []int{1}, Mutate: func(*matrix.Adjacency[algebras.NatInf]) { _ = adj.N }}}
			playTimeline(t, eng, c.start, sched, ev)
			eng.Close()
		}
	}()
	for got, deadline := 0, time.Now().Add(10*time.Second); got < 4; {
		runtime.GC()
		select {
		case <-freed:
			got++
		case <-time.After(20 * time.Millisecond):
			if time.Now().After(deadline) {
				t.Fatalf("%d of 4 adjacencies and schedules of closed engines were collected; parked run scratch still pins the rest", got)
			}
		}
	}
}
